package psl

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/domain"
)

// reverseOrder is the definition CompareRules implements: byte order of
// the reversed suffixes, then plain < wildcard < exception.
func reverseOrder(a, b Rule) int {
	if c := strings.Compare(domain.Reverse(a.Suffix), domain.Reverse(b.Suffix)); c != 0 {
		return c
	}
	rank := func(r Rule) int {
		switch {
		case r.Exception:
			return 2
		case r.Wildcard:
			return 1
		}
		return 0
	}
	return rank(a) - rank(b)
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// kindRule builds a rule of one of the three kinds from k % 3.
func kindRule(suffix string, k uint8) Rule {
	return Rule{Suffix: suffix, Wildcard: k%3 == 1, Exception: k%3 == 2}
}

// compareCorpus is a seeded set of suffixes whose labels straddle '.'
// in byte order ('!' and '-' below it, '0', 'a' and '~' above), with
// empty labels and label-prefix pairs, plus the fixture list's rules and
// the names of the upstream conformance vectors.
func compareCorpus(t *testing.T) []Rule {
	t.Helper()
	alphabet := []string{"a", "-", "!", "0", "~"}
	rng := rand.New(rand.NewSource(7))
	label := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	var rules []Rule
	for i := 0; i < 300; i++ {
		labels := make([]string, 1+rng.Intn(4))
		for j := range labels {
			labels[j] = label()
		}
		s := strings.Join(labels, ".")
		rules = append(rules, kindRule(s, uint8(rng.Intn(3))))
		// A prefix partner: the rightmost label extended by one byte,
		// or the same name one label deeper.
		ext := s + alphabet[rng.Intn(len(alphabet))]
		if i%2 == 1 {
			ext = label() + "." + s
		}
		rules = append(rules, kindRule(ext, uint8(rng.Intn(3))))
	}
	for _, s := range []string{"", ".", "..", "a", "a.", ".a", "a-", "a0", "a!", "a~", "a.a", "a-.a", "a0.a", "a.a-", "a.a0"} {
		for k := uint8(0); k < 3; k++ {
			rules = append(rules, kindRule(s, k))
		}
	}
	rules = append(rules, fixture(t).Rules()...)
	for _, v := range parseVectors(t, "testdata/test_psl.txt") {
		rules = append(rules, Rule{Suffix: v.domain})
	}
	return rules
}

// TestCompareRulesMatchesReverse holds the allocation-free comparator to
// its definition on every pair of the corpus, both argument orders.
func TestCompareRulesMatchesReverse(t *testing.T) {
	rules := compareCorpus(t)
	bad := 0
	for _, a := range rules {
		for _, b := range rules {
			if got, want := sign(CompareRules(a, b)), sign(reverseOrder(a, b)); got != want {
				if bad++; bad <= 10 {
					t.Errorf("CompareRules(%q, %q) = %d, want %d", a.String(), b.String(), got, want)
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d pairs disagree", bad, len(rules)*len(rules))
	}
}

// FuzzCompareRulesMatchesReverse checks the comparator against its
// definition on arbitrary suffix strings and rule kinds.
func FuzzCompareRulesMatchesReverse(f *testing.F) {
	for _, s := range [][2]string{
		{"a.b", "a-.b"}, {"b.a", "b.a0"}, {"", "."}, {"x..y", "x.y"},
		{"a.~", "a!.~"}, {"co.uk", "uk"}, {"com", "com"},
	} {
		f.Add(s[0], s[1], uint8(0), uint8(1))
	}
	f.Fuzz(func(t *testing.T, a, b string, ka, kb uint8) {
		ra, rb := kindRule(a, ka), kindRule(b, kb)
		if got, want := sign(CompareRules(ra, rb)), sign(reverseOrder(ra, rb)); got != want {
			t.Fatalf("CompareRules(%q, %q) = %d, want %d", ra.String(), rb.String(), got, want)
		}
	})
}

var compareSink int

// TestCompareRulesZeroAlloc guards the canonical order's cost: every
// sort of a rule set calls the comparator O(n log n) times.
func TestCompareRulesZeroAlloc(t *testing.T) {
	pairs := [][2]Rule{
		{{Suffix: "example.co.uk"}, {Suffix: "other.co.uk"}},
		{{Suffix: "kobe.jp", Wildcard: true}, {Suffix: "city.kobe.jp", Exception: true}},
		{{Suffix: "a-.b"}, {Suffix: "a.b"}},
		{{Suffix: "com"}, {Suffix: "com", Wildcard: true}},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(200, func() { compareSink = CompareRules(p[0], p[1]) }); n != 0 {
			t.Errorf("CompareRules(%q, %q) allocates %.1f/op, want 0", p[0].String(), p[1].String(), n)
		}
	}
}
