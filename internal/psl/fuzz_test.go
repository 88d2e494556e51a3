package psl

import (
	"strings"
	"testing"
)

// FuzzParseRule checks that arbitrary rule lines either fail cleanly or
// produce a rule that round-trips through its canonical syntax.
func FuzzParseRule(f *testing.F) {
	for _, seed := range []string{
		"com", "co.uk", "*.ck", "!www.ck", "xn--p1ai", "公司.cn",
		"*.compute.amazonaws.com", "a.b.c.d", "!", "*", "*.",
		"a..b", "-x.com", "UPPER.Case", " spaced ", "a.*.b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRule(line, SectionICANN)
		if err != nil {
			return
		}
		back, err := ParseRule(r.String(), SectionICANN)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", r.String(), line, err)
		}
		if back != r {
			t.Fatalf("roundtrip changed rule: %+v -> %+v", r, back)
		}
		if r.Components() < 1 || r.Labels() < 0 {
			t.Fatalf("nonsense accounting for %+v", r)
		}
	})
}

// FuzzParseList checks the file parser never panics and that accepted
// lists serialize and reparse to equal lists.
func FuzzParseList(f *testing.F) {
	f.Add("com\nnet\n")
	f.Add("// comment\n// ===BEGIN ICANN DOMAINS===\nco.uk\n// ===END ICANN DOMAINS===\n")
	f.Add("*.ck\n!www.ck\n")
	f.Add("com inline comment\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		l, err := ParseString(text)
		if err != nil {
			return
		}
		back, err := ParseString(l.Serialize())
		if err != nil {
			t.Fatalf("serialized list does not reparse: %v", err)
		}
		if !back.Equal(l) {
			t.Fatal("serialize/reparse changed the rule set")
		}
	})
}

// FuzzMatchersDifferential is the matcher-equivalence fuzz test: every
// fuzz-generated (rule set, hostname) pair is resolved by the packed
// matcher and by the linear reference, and any disagreement — suffix
// length, implicit flag or prevailing rule — fails with the offending
// rule set. The serving layer's snapshot is held to the same reference
// by FuzzResolveAgreesWithMap in internal/serve.
func FuzzMatchersDifferential(f *testing.F) {
	seeds := [][2]string{
		{fixtureList, "www.example.com"},
		{fixtureList, "a.b.c.kobe.jp"},
		{"*.ck\n!www.ck\n", "www.www.ck"},
		{"uk\nco.uk\n", "a.b.co.uk"},
		{"*.kobe.jp\n!city.kobe.jp\njp\n", "x.y.kobe.jp"},
		{"com\n*.com\nfoo.com\n", "foo.com"},
		{"b\n!b\n", "a.b"},
		{"公司.cn\ncn\n", "食狮.公司.cn"},
		{hyphenSiblings, "d.c.b.a.com"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, listText, host string) {
		l, err := ParseString(listText)
		if err != nil || l.Len() == 0 || l.Len() > 2000 {
			return
		}
		ascii, err := Normalize(host)
		if err != nil {
			return
		}
		if nestedExceptions(l, ascii) {
			return
		}
		want, got := NewLinearMatcher(l).Match(ascii), NewPackedMatcher(l).Match(ascii)
		if got != want {
			t.Fatalf("packed disagrees with linear on %q:\n packed=%+v\n linear=%+v\n rules: %v",
				ascii, got, want, l.Rules())
		}
	})
}

// FuzzMatch checks that lookups on a fixed realistic list never panic
// and respect the basic suffix invariant for any input.
func FuzzMatch(f *testing.F) {
	for _, seed := range []string{
		"www.example.com", "a.b.c.kobe.jp", "ck", "x.ck", "..", "",
		"ec2.compute.amazonaws.com", strings.Repeat("a.", 100) + "com",
		"münchen.de", "[::1]", "192.168.0.1",
	} {
		f.Add(seed)
	}
	l := MustParse(fixtureList)
	f.Fuzz(func(t *testing.T, name string) {
		suffix, _, err := l.PublicSuffix(name)
		if err != nil {
			return
		}
		site := l.SiteOrSelf(name)
		if !strings.HasSuffix(site, suffix) {
			t.Fatalf("site %q does not end in suffix %q (input %q)", site, suffix, name)
		}
	})
}
