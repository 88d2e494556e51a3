package psl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/domain"
)

// randomList builds a randomized but valid rule set over a small label
// alphabet, exercising wildcards and exceptions.
func randomList(rng *rand.Rand) *List {
	alphabet := []string{"a", "b", "c", "aa", "bb", "xy"}
	label := func() string { return alphabet[rng.Intn(len(alphabet))] }
	n := 1 + rng.Intn(30)
	var rules []Rule
	for i := 0; i < n; i++ {
		depth := 1 + rng.Intn(3)
		parts := make([]string, depth)
		for j := range parts {
			parts[j] = label()
		}
		suffix := strings.Join(parts, ".")
		switch rng.Intn(10) {
		case 0, 1:
			rules = append(rules, Rule{Suffix: suffix, Wildcard: true, Section: SectionICANN})
			if rng.Intn(2) == 0 {
				// Exception under the wildcard.
				rules = append(rules, Rule{Suffix: label() + "." + suffix, Exception: true, Section: SectionICANN})
			}
		default:
			rules = append(rules, Rule{Suffix: suffix, Section: SectionICANN})
		}
	}
	return NewList(rules)
}

// randomName builds a random hostname over the same alphabet so that it
// frequently collides with rules.
func randomName(rng *rand.Rand) string {
	alphabet := []string{"a", "b", "c", "aa", "bb", "xy", "zz"}
	depth := 1 + rng.Intn(5)
	parts := make([]string, depth)
	for j := range parts {
		parts[j] = alphabet[rng.Intn(len(alphabet))]
	}
	return strings.Join(parts, ".")
}

// nestedExceptions reports whether more than one exception rule of the
// list matches name. The upstream algorithm does not say which of them
// prevails (real lists never nest exceptions), so the differential
// tests skip such names.
func nestedExceptions(l *List, name string) bool {
	n := 0
	for _, r := range l.Rules() {
		if r.Exception && r.Match(name) {
			n++
		}
	}
	return n > 1
}

// TestMatchersAgree is the core equivalence property: the packed
// matcher and the linear reference produce identical suffix-label
// counts (and implicit flags) on randomized lists and names.
func TestMatchersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		l := randomList(rng)
		lm := NewLinearMatcher(l)
		pm := NewPackedMatcher(l)
		for i := 0; i < 50; i++ {
			name := randomName(rng)
			want, got := lm.Match(name), pm.Match(name)
			if got.SuffixLabels != want.SuffixLabels || got.Implicit != want.Implicit {
				t.Fatalf("trial %d: matchers disagree on %q over %v:\n linear=%+v\n packed=%+v",
					trial, name, l.Rules(), want, got)
			}
		}
	}
}

// TestSiteIdempotent checks Site(Site(x)) == Site(x) on random inputs.
func TestSiteIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		l := randomList(rng)
		for i := 0; i < 30; i++ {
			name := randomName(rng)
			site, err := l.Site(name)
			if err != nil {
				continue
			}
			again, err := l.Site(site)
			if err != nil {
				t.Fatalf("Site(%q) = %q but Site of that errors: %v", name, site, err)
			}
			if again != site {
				t.Fatalf("Site not idempotent: %q -> %q -> %q", name, site, again)
			}
		}
	}
}

// TestSuffixIsSuffixOfName checks structural invariants of PublicSuffix
// and Site against random inputs.
func TestSuffixIsSuffixOfName(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		l := randomList(rng)
		for i := 0; i < 30; i++ {
			name := randomName(rng)
			suffix, _, err := l.PublicSuffix(name)
			if err != nil {
				t.Fatalf("PublicSuffix(%q): %v", name, err)
			}
			if !domain.HasSuffix(name, suffix) {
				t.Fatalf("suffix %q is not a suffix of %q", suffix, name)
			}
			site, err := l.Site(name)
			if err != nil {
				if name != suffix {
					t.Fatalf("Site(%q) errored but name is not the suffix %q", name, suffix)
				}
				continue
			}
			if !domain.HasSuffix(name, site) || !domain.HasSuffix(site, suffix) {
				t.Fatalf("site %q misaligned for name %q suffix %q", site, name, suffix)
			}
			if domain.CountLabels(site) != domain.CountLabels(suffix)+1 {
				t.Fatalf("site %q is not suffix+1 of %q", site, suffix)
			}
		}
	}
}

// TestMatchersAgreeOnFixture pins the equivalence on the realistic
// fixture rules too.
func TestMatchersAgreeOnFixture(t *testing.T) {
	l := fixture(t)
	lm, pm := NewLinearMatcher(l), NewPackedMatcher(l)
	names := []string{
		"com", "example.com", "a.b.example.com", "b.test.ck", "www.ck",
		"www.city.kobe.jp", "x.y.kobe.jp", "unlisted", "deep.unlisted.name",
		"alice.blogspot.com", "a.b.c.compute.amazonaws.com",
	}
	for _, name := range names {
		want, got := lm.Match(name), pm.Match(name)
		if got.SuffixLabels != want.SuffixLabels || got.Implicit != want.Implicit {
			t.Errorf("packed disagrees with linear on %q: %+v vs %+v", name, got, want)
		}
	}
}

func TestWildcardNeedsExtraLabel(t *testing.T) {
	l := MustParse("*.ck\n")
	for _, m := range []Matcher{NewLinearMatcher(l), NewPackedMatcher(l)} {
		res := m.Match("ck")
		if !res.Implicit || res.SuffixLabels != 1 {
			t.Errorf("%T.Match(ck) = %+v, want implicit 1 label", m, res)
		}
	}
}

func TestNormalBeatsWildcardAtSameLength(t *testing.T) {
	l := MustParse("*.ck\nfoo.ck\n")
	for _, m := range []Matcher{NewLinearMatcher(l), NewPackedMatcher(l)} {
		res := m.Match("foo.ck")
		if res.SuffixLabels != 2 {
			t.Fatalf("%T: SuffixLabels = %d, want 2", m, res.SuffixLabels)
		}
		if res.Rule.Wildcard {
			t.Errorf("%T: wildcard won over equal-length normal rule", m)
		}
	}
}

func TestLongestRuleWins(t *testing.T) {
	l := MustParse("uk\nco.uk\n")
	res := l.Matcher().Match("example.co.uk")
	if res.SuffixLabels != 2 || res.Rule.Suffix != "co.uk" {
		t.Errorf("Match = %+v, want co.uk rule", res)
	}
}

func TestExceptionPrevails(t *testing.T) {
	l := MustParse("*.kobe.jp\n!city.kobe.jp\njp\n")
	res := l.Matcher().Match("www.city.kobe.jp")
	if !res.Rule.Exception || res.SuffixLabels != 2 {
		t.Errorf("Match = %+v, want exception with 2 suffix labels", res)
	}
}

// --- ablation benchmarks: matcher representation ----------------------

func benchList(b *testing.B, nRules int) *List {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	rules := make([]Rule, 0, nRules)
	rules = append(rules, Rule{Suffix: "com"}, Rule{Suffix: "co.uk"}, Rule{Suffix: "uk"})
	for len(rules) < nRules {
		s := fmt.Sprintf("r%d.tld%d", rng.Intn(5000), rng.Intn(400))
		rules = append(rules, Rule{Suffix: s})
	}
	return NewList(rules)
}

var benchNames = []string{
	"www.example.com",
	"a.b.c.d.example.co.uk",
	"r17.tld3",
	"deep.r17.tld3",
	"unlisted.zone",
}

func benchMatcher(b *testing.B, m Matcher) {
	b.ReportAllocs()
	// Rotate through the names with a cursor rather than i%len: the
	// modulo's integer divide would otherwise be a fixed tax comparable
	// to a fast matcher's whole lookup.
	k := 0
	for i := 0; i < b.N; i++ {
		m.Match(benchNames[k])
		if k++; k == len(benchNames) {
			k = 0
		}
	}
}

func BenchmarkMatcherAblationLinear(b *testing.B) {
	benchMatcher(b, NewLinearMatcher(benchList(b, 9000)))
}
func BenchmarkMatcherAblationPacked(b *testing.B) {
	benchMatcher(b, NewPackedMatcher(benchList(b, 9000)))
}

func BenchmarkPackedCompile9k(b *testing.B) {
	l := benchList(b, 9000)
	b.ReportAllocs()
	b.ResetTimer()
	var m *PackedMatcher
	for i := 0; i < b.N; i++ {
		m = NewPackedMatcher(l)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(m.Marshal())), "blob_bytes")
	b.ReportMetric(float64(m.SizeBytes()), "table_bytes")
}

func BenchmarkSite(b *testing.B) {
	l := benchList(b, 9000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SiteOrSelf("a.b.example.co.uk")
	}
}

func BenchmarkParse9kRules(b *testing.B) {
	text := benchList(b, 9000).Serialize()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(text); err != nil {
			b.Fatal(err)
		}
	}
}
