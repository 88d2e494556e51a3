package psl

import (
	"math/rand"
	"strings"
	"testing"
)

// TestPackedAgreesOnFixture pins the packed matcher to the linear
// reference on the canonical fixture names, including Rule identity.
func TestPackedAgreesOnFixture(t *testing.T) {
	l := fixture(t)
	lm := NewLinearMatcher(l)
	pm := NewPackedMatcher(l)
	names := []string{
		"com", "example.com", "a.b.example.com", "b.test.ck", "www.ck",
		"www.city.kobe.jp", "x.y.kobe.jp", "unlisted", "deep.unlisted.name",
		"alice.blogspot.com", "a.b.c.compute.amazonaws.com",
		"xn--85x722f.xn--55qx5d.cn",
	}
	for _, name := range names {
		if got, want := pm.Match(name), lm.Match(name); got != want {
			t.Errorf("packed.Match(%q) = %+v, linear says %+v", name, got, want)
		}
	}
}

// TestPackedRandomised drives the packed matcher against the linear
// reference over randomized lists and names, comparing full Results.
func TestPackedRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		l := randomList(rng)
		lm := NewLinearMatcher(l)
		pm := NewPackedMatcher(l)
		for i := 0; i < 50; i++ {
			name := randomName(rng)
			if got, want := pm.Match(name), lm.Match(name); got != want {
				t.Fatalf("trial %d: packed.Match(%q) = %+v, linear says %+v\nrules: %v",
					trial, name, got, want, l.Rules())
			}
		}
	}
}

// TestPackedMarshalRoundtrip proves a compiled version survives the
// blob form: same size, same answers, and a byte-identical re-marshal.
func TestPackedMarshalRoundtrip(t *testing.T) {
	l := fixture(t)
	pm := NewPackedMatcher(l)
	blob := pm.Marshal()
	back, err := UnmarshalPackedMatcher(blob)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Len() != pm.Len() || back.SizeBytes() != pm.SizeBytes() {
		t.Fatalf("roundtrip changed shape: %d/%d rules, %d/%d bytes",
			back.Len(), pm.Len(), back.SizeBytes(), pm.SizeBytes())
	}
	lm := NewLinearMatcher(l)
	names := []string{
		"com", "a.b.example.com", "www.ck", "b.test.ck", "www.city.kobe.jp",
		"alice.blogspot.com", "a.b.c.compute.amazonaws.com", "unlisted.zone",
	}
	for _, name := range names {
		if got, want := back.Match(name), lm.Match(name); got != want {
			t.Errorf("unmarshalled.Match(%q) = %+v, linear says %+v", name, got, want)
		}
	}
	if again := back.Marshal(); string(again) != string(blob) {
		t.Error("re-marshal of unmarshalled matcher is not byte-identical")
	}
}

// TestPackedRoundtripRandomised round-trips randomized lists and
// re-checks agreement afterwards.
func TestPackedRoundtripRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		l := randomList(rng)
		lm := NewLinearMatcher(l)
		back, err := UnmarshalPackedMatcher(NewPackedMatcher(l).Marshal())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 20; i++ {
			name := randomName(rng)
			if got, want := back.Match(name), lm.Match(name); got != want {
				t.Fatalf("trial %d: roundtripped.Match(%q) = %+v, linear says %+v",
					trial, name, got, want)
			}
		}
	}
}

// TestPackedEmptyList: the zero-rule edge case compiles, answers with
// the implicit rule, and round-trips.
func TestPackedEmptyList(t *testing.T) {
	l := NewList(nil)
	pm := NewPackedMatcher(l)
	res := pm.Match("www.example.com")
	if !res.Implicit || res.SuffixLabels != 1 {
		t.Errorf("empty list Match = %+v, want implicit 1 label", res)
	}
	back, err := UnmarshalPackedMatcher(pm.Marshal())
	if err != nil {
		t.Fatalf("empty list roundtrip: %v", err)
	}
	if res := back.Match("x.y"); !res.Implicit || res.SuffixLabels != 1 {
		t.Errorf("roundtripped empty list Match = %+v", res)
	}
}

// TestPackedUnmarshalRejectsCorrupt exhausts the structural rejections:
// truncations at every length, bad magic/version, and targeted word
// corruption. Every corrupt blob must error rather than panic or
// produce a matcher.
func TestPackedUnmarshalRejectsCorrupt(t *testing.T) {
	l := fixture(t)
	blob := NewPackedMatcher(l).Marshal()

	// Every proper prefix is rejected (the trailing arena bytes make
	// the declared size mismatch).
	for n := 0; n < len(blob); n++ {
		if _, err := UnmarshalPackedMatcher(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := UnmarshalPackedMatcher(append(append([]byte{}, blob...), 0)); err == nil {
		t.Error("oversized blob accepted")
	}

	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte{}, blob...)
		mutate(b)
		if _, err := UnmarshalPackedMatcher(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] ^= 0xff })
	corrupt("bad version", func(b []byte) { b[4] = 99 })
	corrupt("zero nodes", func(b []byte) { b[12], b[13], b[14], b[15] = 0, 0, 0, 0 })
	corrupt("inflated rule count", func(b []byte) { b[8] = 0xff })

	// Flip bytes throughout the word region; any flip must either be
	// rejected or still yield a structurally valid matcher that does
	// not panic on lookups.
	for off := packedHeaderLen; off < len(blob)-1; off += 7 {
		b := append([]byte{}, blob...)
		b[off] ^= 0x5a
		pm, err := UnmarshalPackedMatcher(b)
		if err != nil {
			continue
		}
		pm.Match("a.b.example.co.uk")
		pm.Match("www.city.kobe.jp")
	}
}

// TestPackedMatchZeroAlloc is the hot-path allocation guard: a packed
// lookup must not allocate, whatever rule shape prevails.
func TestPackedMatchZeroAlloc(t *testing.T) {
	l := fixture(t)
	pm := NewPackedMatcher(l)
	names := []string{
		"a.b.example.com",         // normal rule
		"www.city.kobe.jp",        // exception
		"b.c.kobe.jp",             // wildcard
		"deep.unlisted.zone.name", // implicit
		"a.b.c.d.e.f.g.h.i.com",   // deep walk
	}
	for _, name := range names {
		if n := testing.AllocsPerRun(200, func() { pm.Match(name) }); n != 0 {
			t.Errorf("packed Match(%q) allocates %.1f/op, want 0", name, n)
		}
		if n := testing.AllocsPerRun(200, func() { pm.MatchText(name) }); n != 0 {
			t.Errorf("packed MatchText(%q) allocates %.1f/op, want 0", name, n)
		}
	}
}

// TestPackedMatchText pins MatchText to Match and its text to
// Rule.String, for compiled and unmarshalled matchers, over every rule
// shape and the implicit result.
func TestPackedMatchText(t *testing.T) {
	l := fixture(t)
	pm := NewPackedMatcher(l)
	back, err := UnmarshalPackedMatcher(pm.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"a.b.example.com", "www.city.kobe.jp", "b.c.kobe.jp", "www.ck", "www.www.ck",
		"deep.unlisted.zone.name", "alice.blogspot.com", "xn--85x722f.xn--55qx5d.cn",
	}
	for _, m := range []*PackedMatcher{pm, back} {
		for _, name := range names {
			res, text := m.MatchText(name)
			if want := m.Match(name); res != want {
				t.Errorf("MatchText(%q) = %+v, Match says %+v", name, res, want)
			}
			want := ""
			if !res.Implicit {
				want = res.Rule.String()
			}
			if text != want {
				t.Errorf("MatchText(%q) text %q, want %q", name, text, want)
			}
		}
	}
}

// TestSiteZeroAllocOnCanonicalInput guards the full library lookup path
// for already-canonical hostnames: normalize (IsIP, IDNA fast path,
// Check) plus match plus site derivation must stay allocation-free.
func TestSiteZeroAllocOnCanonicalInput(t *testing.T) {
	l := fixture(t)
	l.Matcher() // compile the list's matcher outside the measured calls
	for _, name := range []string{"a.b.example.com", "b.c.kobe.jp", "x.co.uk"} {
		if n := testing.AllocsPerRun(200, func() { l.SiteOrSelf(name) }); n != 0 {
			t.Errorf("SiteOrSelf(%q) allocates %.1f/op, want 0", name, n)
		}
	}
}

// TestPackedSizeReasonable sanity-checks the compiled footprint stays
// compact: well under the serialized text size times a small factor.
func TestPackedSizeReasonable(t *testing.T) {
	l := fixture(t)
	pm := NewPackedMatcher(l)
	text := len(l.Serialize())
	if pm.SizeBytes() > 8*text {
		t.Errorf("packed footprint %d bytes vs %d text bytes", pm.SizeBytes(), text)
	}
	if pm.Len() != l.Len() {
		t.Errorf("packed rule count %d, list %d", pm.Len(), l.Len())
	}
}

// TestPackedDeepName exercises long names against a packed matcher to
// cover repeated descents.
func TestPackedDeepName(t *testing.T) {
	l := fixture(t)
	lm, pm := NewLinearMatcher(l), NewPackedMatcher(l)
	name := strings.Repeat("x.", 60) + "ide.kyoto.jp"
	if got, want := pm.Match(name), lm.Match(name); got != want {
		t.Errorf("deep name: packed %+v, linear %+v", got, want)
	}
}
