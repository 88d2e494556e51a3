package dist

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/psl"
)

const baseListText = `
// ===BEGIN ICANN DOMAINS===
com
net
co.uk
*.ck
!www.ck
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
blogspot.com
// ===END PRIVATE DOMAINS===
`

const targetListText = `
// ===BEGIN ICANN DOMAINS===
com
net
github.io
*.ck
!www.ck
fastly.net
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
blogspot.com
// ===END PRIVATE DOMAINS===
`

func testLists(t *testing.T) (old, new *psl.List) {
	t.Helper()
	old = psl.MustParse(baseListText)
	new = psl.MustParse(targetListText)
	new.Date = time.Date(2022, 10, 20, 12, 0, 0, 0, time.UTC)
	new.Version = "v0042-deadbeef"
	return old, new
}

func TestPatchRoundTrip(t *testing.T) {
	old, target := testLists(t)
	p := BuildPatch(old, target, 41, 42)
	// co.uk removed, fastly.net added, github.io moved to ICANN.
	if len(p.Removed) != 1 || p.Removed[0].Suffix != "co.uk" {
		t.Fatalf("Removed = %v", p.Removed)
	}
	if len(p.Added) != 1 || p.Added[0].Suffix != "fastly.net" {
		t.Fatalf("Added = %v", p.Added)
	}
	if len(p.Moved) != 1 || p.Moved[0].Suffix != "github.io" || p.Moved[0].Section != psl.SectionICANN {
		t.Fatalf("Moved = %v", p.Moved)
	}

	blob := p.Encode()
	got, err := DecodePatch(blob)
	if err != nil {
		t.Fatalf("DecodePatch: %v", err)
	}
	if got.FromSeq != 41 || got.ToSeq != 42 || got.FromFP != p.FromFP || got.ToFP != p.ToFP {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.ToVersion != "v0042-deadbeef" || !got.ToDate.Equal(target.Date) {
		t.Fatalf("metadata mismatch: version %q date %v", got.ToVersion, got.ToDate)
	}

	applied, err := got.Apply(old, "")
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !applied.Equal(target) {
		t.Fatalf("applied list differs from target")
	}
	if applied.Serialize() != target.Serialize() {
		t.Fatalf("applied serialization differs (sections or metadata lost):\n%s\nvs\n%s",
			applied.Serialize(), target.Serialize())
	}
	if applied.Fingerprint() != p.ToFP {
		t.Fatalf("applied fingerprint %s != promised %s", applied.Fingerprint(), p.ToFP)
	}
}

func TestPatchApplyWrongBase(t *testing.T) {
	old, target := testLists(t)
	p := BuildPatch(old, target, 1, 2)
	wrong := old.WithRules(psl.Rule{Suffix: "example", Section: psl.SectionICANN})
	if _, err := p.Apply(wrong, ""); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("Apply(wrong base) err = %v, want ErrFingerprint", err)
	}
	// The cached-fingerprint path must verify too.
	if _, err := p.Apply(wrong, wrong.Fingerprint()); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("Apply(wrong base, cached fp) err = %v, want ErrFingerprint", err)
	}
}

func TestPatchApplyHarmlessExtras(t *testing.T) {
	old, target := testLists(t)
	p := BuildPatch(old, target, 1, 2)
	// Removing an absent key and adding an already-present key are
	// no-ops under the dedup semantics; the patch must still verify.
	p.Removed = append(p.Removed, psl.Rule{Suffix: "never.existed", Section: psl.SectionICANN})
	p.Added = append(p.Added, psl.Rule{Suffix: "com", Section: psl.SectionICANN})
	applied, err := p.Apply(old, "")
	if err != nil {
		t.Fatalf("Apply with harmless extras: %v", err)
	}
	if !applied.Equal(target) {
		t.Fatalf("applied list differs from target")
	}
}

func TestPatchDecodeRejectsDamage(t *testing.T) {
	old, target := testLists(t)
	blob := BuildPatch(old, target, 1, 2).Encode()

	if _, err := DecodePatch(blob[:10]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated decode err = %v, want ErrCorrupt", err)
	}
	if _, err := DecodePatch(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty decode err = %v, want ErrCorrupt", err)
	}
	// Flipping any single byte must be caught (checksum or framing).
	for _, i := range []int{0, 4, 5, 20, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0xff
		if _, err := DecodePatch(bad); err == nil {
			t.Errorf("decode with byte %d flipped succeeded", i)
		}
	}
	// Trailing junk changes the checksummed region, so it fails too.
	if _, err := DecodePatch(append(append([]byte(nil), blob...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing-junk decode err = %v, want ErrCorrupt", err)
	}
	// A full blob is not a patch.
	if _, err := DecodePatch(EncodeFull(old, 1)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("full-as-patch decode err = %v, want ErrCorrupt", err)
	}
}

func TestFullRoundTrip(t *testing.T) {
	_, target := testLists(t)
	blob := EncodeFull(target, 42)
	f, err := DecodeFull(blob)
	if err != nil {
		t.Fatalf("DecodeFull: %v", err)
	}
	if f.Seq != 42 || f.Version != target.Version || !f.Date.Equal(target.Date) {
		t.Fatalf("header mismatch: %+v", f)
	}
	l, err := f.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if l.Serialize() != target.Serialize() {
		t.Fatalf("materialised list differs from source")
	}

	for _, i := range []int{0, 4, 5, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0xff
		if _, err := DecodeFull(bad); err == nil {
			t.Errorf("decode with byte %d flipped succeeded", i)
		}
	}
}

func TestFullListDetectsDuplicateCollapse(t *testing.T) {
	_, target := testLists(t)
	blob := EncodeFull(target, 7)
	f, err := DecodeFull(blob)
	if err != nil {
		t.Fatalf("DecodeFull: %v", err)
	}
	// Tamper post-decode: a duplicated rule would collapse in the list,
	// and it breaks the blob's strictly ascending canonical order, which
	// List checks before adopting it.
	f.Rules = append(f.Rules, f.Rules[0])
	f.Rules = append(f.Rules[:1], f.Rules[2:]...)
	if _, err := f.List(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("List on tampered rules err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsNonCanonicalRules(t *testing.T) {
	// Hand-build a patch whose rule has the exception+wildcard kind
	// bits both set — representable in the wire format, but not
	// producible by the parser; decode must reject it even though the
	// checksum is valid.
	old, target := testLists(t)
	p := BuildPatch(old, target, 1, 2)
	p.Added = []psl.Rule{{Suffix: "bad.example", Wildcard: true, Exception: true, Section: psl.SectionICANN}}
	blob := p.Encode()
	if _, err := DecodePatch(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode of !*. rule err = %v, want ErrCorrupt", err)
	}
	// Same for an upper-case (non-normalized) suffix.
	p.Added = []psl.Rule{{Suffix: "UPPER.example", Section: psl.SectionICANN}}
	if _, err := DecodePatch(p.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode of non-normalized rule err = %v, want ErrCorrupt", err)
	}
}

func TestChainFingerprintsMatchListAt(t *testing.T) {
	h := history.Generate(history.Config{Versions: 60})
	c := NewChain(h)
	if c.Len() != 60 {
		t.Fatalf("chain covers %d versions, want 60", c.Len())
	}
	for _, seq := range []int{0, 1, 17, 30, 59} {
		want := h.ListAt(seq).Fingerprint()
		if got := c.Fingerprint(seq); got != want {
			t.Fatalf("chain fingerprint for v%d = %s, want %s", seq, got, want)
		}
	}
}

func TestChainPatchAppliesAcrossGaps(t *testing.T) {
	h := history.Generate(history.Config{Versions: 60})
	c := NewChain(h)
	for _, hop := range [][2]int{{0, 1}, {0, 59}, {10, 30}, {58, 59}} {
		from, to := hop[0], hop[1]
		p := c.Patch(from, to)
		blob := p.Encode()
		dec, err := DecodePatch(blob)
		if err != nil {
			t.Fatalf("patch %d→%d decode: %v", from, to, err)
		}
		applied, err := dec.Apply(h.ListAt(from), "")
		if err != nil {
			t.Fatalf("patch %d→%d apply: %v", from, to, err)
		}
		want := h.ListAt(to)
		if applied.Serialize() != want.Serialize() {
			t.Fatalf("patch %d→%d result differs from ListAt", from, to)
		}
		if applied.Version != want.Version || !applied.Date.Equal(want.Date) {
			t.Fatalf("patch %d→%d metadata: %q/%v want %q/%v",
				from, to, applied.Version, applied.Date, want.Version, want.Date)
		}
	}
}

func TestFullBlobSizeFormula(t *testing.T) {
	h := history.Generate(history.Config{Versions: 40})
	c := NewChain(h)
	_ = c
	for _, seq := range []int{0, 20, 39} {
		l := h.ListAt(seq)
		rulesEnc := 0
		for _, r := range l.Rules() {
			rulesEnc += encodedRuleSize(r)
		}
		want := len(EncodeFull(l, seq))
		if got := fullBlobSize(h.Meta(seq), l.Len(), rulesEnc); got != want {
			t.Fatalf("fullBlobSize(v%d) = %d, want %d", seq, got, want)
		}
	}
}

func TestComputeChainStats(t *testing.T) {
	h := history.Generate(history.Config{Versions: 40})
	s := ComputeChainStats(h)
	if s.Versions != 40 {
		t.Fatalf("Versions = %d", s.Versions)
	}
	if s.PatchBytesTotal <= 0 || s.FullBytesTotal <= 0 || s.BootstrapBytes <= 0 {
		t.Fatalf("degenerate stats: %+v", s)
	}
	if s.Ratio() <= 1 {
		t.Fatalf("full/patch ratio %.2f, expected deltas to win decisively", s.Ratio())
	}
	// Head full-blob size from the formula must match a real encode.
	if got := int64(len(EncodeFull(h.Latest(), h.Len()-1))); got != s.HeadFullBytes {
		t.Fatalf("HeadFullBytes = %d, real encode %d", s.HeadFullBytes, got)
	}
}

func TestPatchSeqRangeRejected(t *testing.T) {
	old, target := testLists(t)
	p := BuildPatch(old, target, 5, 5)
	if _, err := DecodePatch(p.Encode()); err == nil || !strings.Contains(err.Error(), "from == to") {
		t.Fatalf("self-patch decode err = %v, want from==to rejection", err)
	}
}
