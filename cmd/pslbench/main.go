// pslbench emits the repository's machine-readable performance
// baseline: ns/op and allocs/op for the packed matcher and the linear
// reference over the standard 9k-rule ablation list, the packed compile
// and blob costs, and the batched lookup scaling matrix (GOMAXPROCS 1/2/4/8, /v1/batch vs single
// lookups, in-process and over HTTP). Results are written as JSON
// (default BENCH_matchers.json) so successive runs can be diffed to
// track the perf trajectory.
//
//	go run ./cmd/pslbench -out BENCH_matchers.json
//
// The measurements mirror the benchmarks in internal/psl and
// bench_test.go (same list shape, same name mix), just
// run through testing.Benchmark so a single command produces one
// comparable artefact.
//
// Scaling rows where GOMAXPROCS exceeds the host's CPU count carry
// "scaling": "unmeasured" — oversubscribed workers measure scheduler
// noise, not parallel speedup — and per_core_efficiency (speedup
// divided by cores) is recorded instead of a bare speedup so a
// single-core run cannot masquerade as a scaling result.
//
// With -check the run turns into a CI gate: it exits nonzero when the
// steady-state batch path costs more per row than a cached single
// lookup, or when the HTTP batch endpoint fails to beat single-request
// throughput by at least 3x per core.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/history"
	"repro/internal/psl"
	"repro/internal/serve"
)

// benchRules mirrors internal/psl's benchList: a realistic 9k-rule mix
// of one-label TLDs and two-label entries, plus com/co.uk/uk.
func benchRules(n int) *psl.List {
	rng := rand.New(rand.NewSource(99))
	rules := make([]psl.Rule, 0, n)
	rules = append(rules, psl.Rule{Suffix: "com"}, psl.Rule{Suffix: "co.uk"}, psl.Rule{Suffix: "uk"})
	for len(rules) < n {
		rules = append(rules, psl.Rule{Suffix: fmt.Sprintf("r%d.tld%d", rng.Intn(5000), rng.Intn(400))})
	}
	return psl.NewList(rules)
}

// benchNames is the lookup mix of the matcher ablations: common, deep,
// listed, sub-of-listed and unlisted names.
var benchNames = []string{
	"www.example.com",
	"a.b.c.d.example.co.uk",
	"r17.tld3",
	"deep.r17.tld3",
	"unlisted.zone",
}

// matcherResult is one matcher's measured lookup cost.
type matcherResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// distResult is the delta-distribution ablation: cumulative patch
// bytes versus cumulative full-snapshot bytes over the whole history
// (mirrors BenchmarkPatchChain in internal/dist).
type distResult struct {
	dist.ChainStats
	FullOverPatchRatio float64 `json:"full_over_patch_ratio"`
}

// scalingRow is one GOMAXPROCS point of the batch scaling matrix:
// steady-state cached cost per row through LookupBatch versus one
// single Lookup, both under RunParallel at that proc count.
type scalingRow struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	BatchNsPerRow float64 `json:"batch_ns_per_row"`
	SingleNsPerOp float64 `json:"single_ns_per_op"`
	// BatchAdvantage is single_ns_per_op / batch_ns_per_row at this
	// proc count: how much cheaper a row is inside a batch.
	BatchAdvantage float64 `json:"batch_advantage"`
	// Speedup is this row's batch throughput relative to the
	// GOMAXPROCS=1 row, and PerCoreEfficiency divides it by the proc
	// count — perfect scaling is 1.0 at every row.
	Speedup           float64 `json:"speedup"`
	PerCoreEfficiency float64 `json:"per_core_efficiency"`
	// Scaling is "unmeasured" when GOMAXPROCS oversubscribes the
	// host's CPUs: the numbers are recorded for completeness but say
	// nothing about parallel scaling.
	Scaling string `json:"scaling,omitempty"`
}

// scalingResult is the whole matrix plus the HTTP-level comparison the
// batch endpoint exists for: rows/sec through one /v1/batch POST
// versus single /v1/lookup requests, sequentially on one connection.
type scalingResult struct {
	BatchSize           int          `json:"batch_size"`
	Rows                []scalingRow `json:"rows"`
	HTTPBatchRowsPerSec float64      `json:"http_batch_rows_per_sec"`
	HTTPSingleReqPerSec float64      `json:"http_single_reqs_per_sec"`
	// HTTPBatchAdvantage is batch rows/sec over single requests/sec on
	// the same connection — the factor by which batching amortises the
	// per-request HTTP overhead (acceptance bar: >= 3x at batch 256).
	HTTPBatchAdvantage float64 `json:"http_batch_advantage"`
}

// scalingHosts synthesises a deterministic pool of n hostnames shaped
// like the bench list's rules; all resolve (listed or implicit) and,
// once warmed, every one is a cache hit — the steady-state regime the
// batch path is built for.
func scalingHosts(n int) []string {
	rng := rand.New(rand.NewSource(7))
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d.r%d.tld%d", i, rng.Intn(5000), rng.Intn(400))
	}
	return hosts
}

// measureScaling produces the GOMAXPROCS matrix and the HTTP batch
// advantage over a serve.Service built on l.
func measureScaling(l *psl.List, batchSize int, procs []int) *scalingResult {
	svc := serve.New(l, 0, serve.Options{})
	hosts := scalingHosts(batchSize)
	svc.LookupBatch(hosts, nil) // warm: every measured row is a cache hit

	res := &scalingResult{BatchSize: batchSize}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		batch := testing.Benchmark(func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				dst := make([]serve.Answer, 0, batchSize)
				for pb.Next() {
					dst = svc.LookupBatch(hosts, dst[:0])
				}
			})
		})
		single := testing.Benchmark(func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					_, _ = svc.Lookup(hosts[k])
					if k++; k == len(hosts) {
						k = 0
					}
				}
			})
		})
		row := scalingRow{
			GOMAXPROCS:    p,
			BatchNsPerRow: float64(batch.T.Nanoseconds()) / float64(batch.N) / float64(batchSize),
			SingleNsPerOp: float64(single.T.Nanoseconds()) / float64(single.N),
		}
		if row.BatchNsPerRow > 0 {
			row.BatchAdvantage = row.SingleNsPerOp / row.BatchNsPerRow
			if len(res.Rows) > 0 {
				row.Speedup = res.Rows[0].BatchNsPerRow / row.BatchNsPerRow
			} else {
				row.Speedup = 1
			}
			row.PerCoreEfficiency = row.Speedup / float64(p)
		}
		if p > runtime.NumCPU() {
			row.Scaling = "unmeasured"
		}
		res.Rows = append(res.Rows, row)
	}
	runtime.GOMAXPROCS(prev)

	// HTTP comparison, sequential on one warm connection: the per-row
	// cost of a 256-row binary batch POST versus one GET per lookup.
	srv := httptest.NewServer(svc)
	defer srv.Close()
	client := srv.Client()
	payload, err := serve.EncodeBatchRequest(hosts)
	if err != nil {
		panic(err) // hosts are synthesised valid UTF-8 within bounds
	}
	httpBatch := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(srv.URL+serve.BatchPath, serve.BatchBinaryContentType, bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	httpSingle := testing.Benchmark(func(b *testing.B) {
		k := 0
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(srv.URL + serve.LookupPath + "?host=" + hosts[k])
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if k++; k == len(hosts) {
				k = 0
			}
		}
	})
	if n := httpBatch.N; n > 0 && httpBatch.T > 0 {
		res.HTTPBatchRowsPerSec = float64(batchSize) * float64(n) / httpBatch.T.Seconds()
	}
	if n := httpSingle.N; n > 0 && httpSingle.T > 0 {
		res.HTTPSingleReqPerSec = float64(n) / httpSingle.T.Seconds()
	}
	if res.HTTPSingleReqPerSec > 0 {
		res.HTTPBatchAdvantage = res.HTTPBatchRowsPerSec / res.HTTPSingleReqPerSec
	}
	return res
}

// output is the whole BENCH_matchers.json document.
type output struct {
	GoVersion         string                   `json:"go_version"`
	GOMAXPROCS        int                      `json:"gomaxprocs"`
	NumCPU            int                      `json:"num_cpu"`
	Rules             int                      `json:"rules"`
	Matchers          map[string]matcherResult `json:"matchers"`
	PackedCompileNsOp float64                  `json:"packed_compile_ns_per_op"`
	PackedBlobBytes   int                      `json:"packed_blob_bytes"`
	PackedTableBytes  int                      `json:"packed_table_bytes"`
	Dist              *distResult              `json:"dist,omitempty"`
	Scaling           *scalingResult           `json:"scaling,omitempty"`
	Notes             []string                 `json:"notes,omitempty"`
}

// measure runs one matcher over the standard name mix under
// testing.Benchmark.
func measure(m psl.Matcher) matcherResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		k := 0
		for i := 0; i < b.N; i++ {
			m.Match(benchNames[k])
			if k++; k == len(benchNames) {
				k = 0
			}
		}
	})
	return matcherResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchConfig selects which sections a run collects.
type benchConfig struct {
	rules     int
	batchSize int
	quick     bool // matrix at GOMAXPROCS=1 only, skip dist
}

// collect produces the full document.
func collect(cfg benchConfig) output {
	l := benchRules(cfg.rules)
	out := output{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Rules:      l.Len(),
		Matchers:   make(map[string]matcherResult, 2),
	}
	out.Matchers["linear"] = measure(psl.NewLinearMatcher(l))
	pm := psl.NewPackedMatcher(l)
	out.Matchers["packed"] = measure(pm)
	compile := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psl.NewPackedMatcher(l)
		}
	})
	out.PackedCompileNsOp = float64(compile.T.Nanoseconds()) / float64(compile.N)
	out.PackedBlobBytes = len(pm.Marshal())
	out.PackedTableBytes = pm.SizeBytes()
	if !cfg.quick {
		ds := dist.ComputeChainStats(history.Generate(history.Config{Seed: history.DefaultSeed}))
		out.Dist = &distResult{ChainStats: ds, FullOverPatchRatio: ds.Ratio()}
	}
	procs := []int{1, 2, 4, 8}
	if cfg.quick {
		procs = []int{1}
	}
	out.Scaling = measureScaling(l, cfg.batchSize, procs)
	for _, row := range out.Scaling.Rows {
		if row.Scaling == "unmeasured" {
			out.Notes = append(out.Notes,
				fmt.Sprintf("scaling row GOMAXPROCS=%d oversubscribes the host's %d CPU(s) and is marked unmeasured", row.GOMAXPROCS, out.NumCPU))
		}
	}
	return out
}

// check enforces the CI gates over a collected document, returning a
// non-nil error describing the first violated bar.
func check(doc output) error {
	sc := doc.Scaling
	if sc == nil || len(sc.Rows) == 0 {
		return fmt.Errorf("no scaling section to check")
	}
	// Both sides are dominated by the same cache-hit lookup, so the
	// margin between them is small; the 15% tolerance absorbs timer
	// noise while still tripping on any real per-row regression (one
	// allocation or per-row counter costs far more than that).
	r0 := sc.Rows[0]
	if r0.BatchNsPerRow > r0.SingleNsPerOp*1.15 {
		return fmt.Errorf("batch path costs %.1f ns/row, more than a cached single lookup (%.1f ns/op)",
			r0.BatchNsPerRow, r0.SingleNsPerOp)
	}
	if sc.HTTPBatchAdvantage < 3 {
		return fmt.Errorf("HTTP batch advantage %.2fx is below the 3x bar (batch %.0f rows/s vs %.0f single reqs/s)",
			sc.HTTPBatchAdvantage, sc.HTTPBatchRowsPerSec, sc.HTTPSingleReqPerSec)
	}
	return nil
}

func main() {
	outPath := flag.String("out", "BENCH_matchers.json", "output JSON path ('-' for stdout)")
	rules := flag.Int("rules", 9000, "benchmark list size")
	batchSize := flag.Int("batch-size", 256, "rows per batch in the scaling matrix")
	quick := flag.Bool("quick", false, "reduced run for CI: scaling matrix at GOMAXPROCS=1 only, no dist stats")
	doCheck := flag.Bool("check", false, "exit nonzero when a perf acceptance bar is violated")
	flag.Parse()
	if *batchSize < 1 {
		fmt.Fprintln(os.Stderr, "pslbench: -batch-size must be positive")
		os.Exit(2)
	}

	doc := collect(benchConfig{
		rules:     *rules,
		batchSize: *batchSize,
		quick:     *quick,
	})
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pslbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *outPath == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pslbench:", err)
			os.Exit(1)
		}
		r0 := doc.Scaling.Rows[0]
		fmt.Printf("wrote %s (packed %.1f ns/op, batch %.1f ns/row vs single %.1f ns/op, http batch %.1fx)\n",
			*outPath, doc.Matchers["packed"].NsPerOp, r0.BatchNsPerRow, r0.SingleNsPerOp, doc.Scaling.HTTPBatchAdvantage)
	}
	if *doCheck {
		if err := check(doc); err != nil {
			fmt.Fprintln(os.Stderr, "pslbench: check failed:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "pslbench: perf bars hold")
	}
}
