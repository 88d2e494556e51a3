package psl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/domain"
)

// genRule produces random valid rules for testing/quick.
type genRule Rule

// Generate implements quick.Generator.
func (genRule) Generate(rng *rand.Rand, size int) reflect.Value {
	labels := []string{"aa", "bb", "cc", "dd", "xn--p1ai", "a1", "b-2"}
	depth := 1 + rng.Intn(3)
	parts := make([]string, depth)
	for i := range parts {
		parts[i] = labels[rng.Intn(len(labels))]
	}
	r := Rule{Suffix: strings.Join(parts, "."), Section: Section(1 + rng.Intn(2))}
	switch rng.Intn(6) {
	case 0:
		r.Wildcard = true
	case 1:
		if depth > 1 {
			r.Exception = true
		}
	}
	return reflect.ValueOf(genRule(r))
}

// TestQuickRuleStringParseRoundtrip: every generated rule reparses to
// itself from its list-file syntax.
func TestQuickRuleStringParseRoundtrip(t *testing.T) {
	f := func(gr genRule) bool {
		r := Rule(gr)
		back, err := ParseRule(r.String(), r.Section)
		if err != nil {
			return false
		}
		return back == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickListSerializeRoundtrip: lists of generated rules survive
// serialization, preserving fingerprints.
func TestQuickListSerializeRoundtrip(t *testing.T) {
	f := func(grs []genRule) bool {
		rules := make([]Rule, len(grs))
		for i, gr := range grs {
			rules[i] = Rule(gr)
		}
		l := NewList(rules)
		back, err := ParseString(l.Serialize())
		if err != nil {
			return false
		}
		return back.Equal(l) && back.Fingerprint() == l.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiffInvertible: applying a diff to the old list reproduces
// the new list, sections included.
func TestQuickDiffInvertible(t *testing.T) {
	f := func(a, b []genRule) bool {
		old := NewList(convert(a))
		new_ := NewList(convert(b))
		return old.WithDiff(DiffLists(old, new_)).Equal(new_)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickMatchersAgreeGenerated: the packed matcher agrees with the
// linear reference on quick-generated rule sets and names
// (complementing the fixed-seed random test in match_test.go).
func TestQuickMatchersAgreeGenerated(t *testing.T) {
	f := func(grs []genRule, hostRaw []uint8) bool {
		l := NewList(convert(grs))
		lm, pm := NewLinearMatcher(l), NewPackedMatcher(l)
		// Derive a host from the raw bytes over the same label alphabet.
		labels := []string{"aa", "bb", "cc", "dd", "xn--p1ai", "a1", "b-2", "zz"}
		depth := 1 + len(hostRaw)%5
		parts := make([]string, 0, depth)
		for i := 0; i < depth; i++ {
			idx := 0
			if i < len(hostRaw) {
				idx = int(hostRaw[i]) % len(labels)
			}
			parts = append(parts, labels[idx])
		}
		host := strings.Join(parts, ".")
		if nestedExceptions(l, host) {
			return true
		}
		want, got := lm.Match(host), pm.Match(host)
		return got.SuffixLabels == want.SuffixLabels && got.Implicit == want.Implicit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestQuickSiteContainsSuffix: for any generated list and host, the
// site is host-or-suffix+1 and the suffix divides it.
func TestQuickSiteContainsSuffix(t *testing.T) {
	f := func(grs []genRule, hostRaw []uint8) bool {
		l := NewList(convert(grs))
		labels := []string{"aa", "bb", "cc", "dd"}
		depth := 1 + len(hostRaw)%4
		parts := make([]string, 0, depth)
		for i := 0; i < depth; i++ {
			idx := 0
			if i < len(hostRaw) {
				idx = int(hostRaw[i]) % len(labels)
			}
			parts = append(parts, labels[idx])
		}
		host := strings.Join(parts, ".")
		suffix, _, err := l.PublicSuffix(host)
		if err != nil {
			return false
		}
		site := l.SiteOrSelf(host)
		return domain.HasSuffix(host, site) && domain.HasSuffix(site, suffix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func convert(grs []genRule) []Rule {
	rules := make([]Rule, len(grs))
	for i, gr := range grs {
		rules[i] = Rule(gr)
	}
	return rules
}
