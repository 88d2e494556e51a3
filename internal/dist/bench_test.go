package dist

import (
	"testing"

	"repro/internal/history"
	"repro/internal/psl"
)

// BenchmarkPatchChain prices the delta-distribution ablation: following
// the full default history hop by hop via patches versus re-fetching a
// full snapshot blob per version. The reported custom metrics feed the
// EXPERIMENTS.md ablation row; the benchmark is meaningful at
// -benchtime=1x (one iteration prices the whole chain).
func BenchmarkPatchChain(b *testing.B) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	b.ResetTimer()
	var s ChainStats
	for i := 0; i < b.N; i++ {
		s = ComputeChainStats(h)
	}
	b.ReportMetric(float64(s.PatchBytesTotal), "patch_bytes")
	b.ReportMetric(float64(s.FullBytesTotal), "full_bytes")
	b.ReportMetric(s.Ratio(), "full/patch_ratio")
	b.ReportMetric(float64(s.MaxPatchBytes), "max_patch_bytes")
}

// BenchmarkPatchApply prices one edge hop on the generated head: a
// one-rule patch applied to the list a replica bootstrapped from the
// head's full blob, including the ToFP verification. The result
// inherits the base's canonical order by merge, so no iteration sorts.
func BenchmarkPatchApply(b *testing.B) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	head := h.Latest()
	f, err := DecodeFull(EncodeFull(head, h.Len()-1))
	if err != nil {
		b.Fatal(err)
	}
	base, err := f.List()
	if err != nil {
		b.Fatal(err)
	}
	next := head.WithRules(psl.Rule{Suffix: "bench-apply.example.com", Section: psl.SectionPrivate})
	p, err := DecodePatch(BuildPatch(head, next, h.Len()-1, h.Len()).Encode())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Apply(base, f.FP); err != nil {
			b.Fatal(err)
		}
	}
}
