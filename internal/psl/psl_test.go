package psl

import (
	"strings"
	"testing"
)

// fixtureList contains the rules needed by the canonical test vectors
// published alongside the real list (test_psl.txt), expressed in list
// file syntax, with both ICANN and PRIVATE sections.
const fixtureList = `
// Public Suffix List test fixture
// ===BEGIN ICANN DOMAINS===
com
biz
uk
co.uk
gov.uk
jp
ac.jp
kyoto.jp
ide.kyoto.jp
*.kobe.jp
!city.kobe.jp
*.ck
!www.ck
us
ak.us
k12.ak.us
cn
com.cn
公司.cn
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
blogspot.com
github.io
*.compute.amazonaws.com
// ===END PRIVATE DOMAINS===
`

func fixture(t testing.TB) *List {
	t.Helper()
	l, err := ParseString(fixtureList)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return l
}

// checkSite mirrors the checkPublicSuffix() convention of the canonical
// test file: want == "" means "no registrable domain".
func checkSite(t *testing.T, l *List, name, want string) {
	t.Helper()
	got, err := l.Site(name)
	if want == "" {
		if err == nil {
			t.Errorf("Site(%q) = %q, want error", name, got)
		}
		return
	}
	if err != nil {
		t.Errorf("Site(%q) error: %v, want %q", name, err, want)
		return
	}
	if got != want {
		t.Errorf("Site(%q) = %q, want %q", name, got, want)
	}
}

// TestCanonicalVectors runs the published checkPublicSuffix test vectors
// that are expressible against the fixture rules.
func TestCanonicalVectors(t *testing.T) {
	l := fixture(t)
	cases := []struct{ name, want string }{
		// Mixed case.
		{"COM", ""},
		{"example.COM", "example.com"},
		{"WwW.example.COM", "example.com"},
		// Unlisted TLD (implicit * rule).
		{"example", ""},
		{"example.example", "example.example"},
		{"b.example.example", "example.example"},
		{"a.b.example.example", "example.example"},
		// Listed, but non-Internet, TLD equivalent.
		{"biz", ""},
		{"domain.biz", "domain.biz"},
		{"b.domain.biz", "domain.biz"},
		{"a.b.domain.biz", "domain.biz"},
		// TLD with only one rule.
		{"com", ""},
		{"example.com", "example.com"},
		{"b.example.com", "example.com"},
		{"a.b.example.com", "example.com"},
		// TLD with some two-level rules.
		{"uk", ""},
		{"example.uk", "example.uk"},
		{"co.uk", ""},
		{"example.co.uk", "example.co.uk"},
		{"b.example.co.uk", "example.co.uk"},
		{"a.b.example.co.uk", "example.co.uk"},
		// Japanese registry structure.
		{"jp", ""},
		{"test.jp", "test.jp"},
		{"www.test.jp", "test.jp"},
		{"ac.jp", ""},
		{"test.ac.jp", "test.ac.jp"},
		{"www.test.ac.jp", "test.ac.jp"},
		{"kyoto.jp", ""},
		{"test.kyoto.jp", "test.kyoto.jp"},
		{"ide.kyoto.jp", ""},
		{"b.ide.kyoto.jp", "b.ide.kyoto.jp"},
		{"a.b.ide.kyoto.jp", "b.ide.kyoto.jp"},
		{"c.kobe.jp", ""},
		{"b.c.kobe.jp", "b.c.kobe.jp"},
		{"a.b.c.kobe.jp", "b.c.kobe.jp"},
		{"city.kobe.jp", "city.kobe.jp"},
		{"www.city.kobe.jp", "city.kobe.jp"},
		// TLD with a wildcard rule and exceptions.
		{"ck", ""},
		{"test.ck", ""},
		{"b.test.ck", "b.test.ck"},
		{"a.b.test.ck", "b.test.ck"},
		{"www.ck", "www.ck"},
		{"www.www.ck", "www.ck"},
		// US K12.
		{"us", ""},
		{"test.us", "test.us"},
		{"www.test.us", "test.us"},
		{"ak.us", ""},
		{"test.ak.us", "test.ak.us"},
		{"www.test.ak.us", "test.ak.us"},
		{"k12.ak.us", ""},
		{"test.k12.ak.us", "test.k12.ak.us"},
		{"www.test.k12.ak.us", "test.k12.ak.us"},
		// IDN labels (punycoded form of 食狮.com.cn family).
		{"xn--85x722f.com.cn", "xn--85x722f.com.cn"},
		{"xn--85x722f.xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn"},
		{"www.xn--85x722f.xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn"},
		{"shishi.xn--55qx5d.cn", "shishi.xn--55qx5d.cn"},
		{"xn--55qx5d.cn", ""},
		// U-label inputs normalise to the same answers.
		{"食狮.公司.cn", "xn--85x722f.xn--55qx5d.cn"},
		{"www.食狮.公司.cn", "xn--85x722f.xn--55qx5d.cn"},
		// Private-section suffixes.
		{"blogspot.com", ""},
		{"myblog.blogspot.com", "myblog.blogspot.com"},
		{"x.myblog.blogspot.com", "myblog.blogspot.com"},
		{"pages.github.io", "pages.github.io"},
		// The wildcard matches exactly one label: eu-west.compute.…
		// is the suffix, ec2-….eu-west.compute.… the site.
		{"eu-west.compute.amazonaws.com", ""},
		{"ec2-1-2-3-4.eu-west.compute.amazonaws.com", "ec2-1-2-3-4.eu-west.compute.amazonaws.com"},
		{"x.ec2-1-2-3-4.eu-west.compute.amazonaws.com", "ec2-1-2-3-4.eu-west.compute.amazonaws.com"},
	}
	for _, c := range cases {
		checkSite(t, l, c.name, c.want)
	}
}

func TestSiteRejectsNonDomains(t *testing.T) {
	l := fixture(t)
	for _, name := range []string{"", ".", "192.168.0.1", "[2001:db8::1]", "a..b", "-bad.com"} {
		if got, err := l.Site(name); err == nil {
			t.Errorf("Site(%q) = %q, want error", name, got)
		}
	}
}

func TestPublicSuffix(t *testing.T) {
	l := fixture(t)
	cases := []struct {
		name   string
		suffix string
		icann  bool
	}{
		{"www.example.com", "com", true},
		{"example.co.uk", "co.uk", true},
		{"myblog.blogspot.com", "blogspot.com", false}, // private section
		{"foo.unlisted", "unlisted", false},            // implicit rule
		{"b.test.ck", "test.ck", true},                 // wildcard
		{"www.city.kobe.jp", "kobe.jp", true},          // exception
		{"com", "com", true},                           // bare suffix
	}
	for _, c := range cases {
		suffix, icann, err := l.PublicSuffix(c.name)
		if err != nil {
			t.Errorf("PublicSuffix(%q): %v", c.name, err)
			continue
		}
		if suffix != c.suffix || icann != c.icann {
			t.Errorf("PublicSuffix(%q) = %q/%v, want %q/%v", c.name, suffix, icann, c.suffix, c.icann)
		}
	}
}

func TestSiteOrSelf(t *testing.T) {
	l := fixture(t)
	if got := l.SiteOrSelf("com"); got != "com" {
		t.Errorf("SiteOrSelf(com) = %q", got)
	}
	if got := l.SiteOrSelf("www.example.com"); got != "example.com" {
		t.Errorf("SiteOrSelf = %q", got)
	}
}

func TestSameSiteAndThirdParty(t *testing.T) {
	l := fixture(t)
	cases := []struct {
		a, b string
		same bool
	}{
		{"www.google.com", "maps.google.com", true},
		{"google.co.uk", "yahoo.co.uk", false},
		{"a.blog.blogspot.com", "blog.blogspot.com", true},
		{"alice.blogspot.com", "bob.blogspot.com", false},
		{"x.example.com", "example.com", true},
	}
	for _, c := range cases {
		if got := l.SameSite(c.a, c.b); got != c.same {
			t.Errorf("SameSite(%q, %q) = %v, want %v", c.a, c.b, got, c.same)
		}
		if got := l.IsThirdParty(c.a, c.b); got == c.same {
			t.Errorf("IsThirdParty(%q, %q) = %v, want %v", c.a, c.b, got, !c.same)
		}
	}
}

// TestStaleListMergesSites reproduces the paper's Figure 1: under a list
// missing the blogspot.com rule, two unrelated blogs collapse into one
// site.
func TestStaleListMergesSites(t *testing.T) {
	fresh := fixture(t)
	stale := fresh.WithoutRules(Rule{Suffix: "blogspot.com", Section: SectionPrivate})
	a, b := "good.blogspot.com", "bad.blogspot.com"
	if fresh.SameSite(a, b) {
		t.Fatal("fresh list should separate the two blogs")
	}
	if !stale.SameSite(a, b) {
		t.Fatal("stale list should (incorrectly) merge the two blogs")
	}
}

func TestCookieDomainAllowed(t *testing.T) {
	l := fixture(t)
	cases := []struct {
		host, attr string
		want       bool
	}{
		{"www.example.com", "example.com", true},
		{"www.example.com", "www.example.com", true},
		{"www.example.com", "com", false},     // supercookie
		{"sub.example.co.uk", "co.uk", false}, // supercookie
		{"sub.example.co.uk", "example.co.uk", true},
		{"a.b.example.com", "b.example.com", true},
		{"example.com", "other.com", false}, // not an ancestor
		{"alice.blogspot.com", "blogspot.com", false},
	}
	for _, c := range cases {
		if got := l.CookieDomainAllowed(c.host, c.attr); got != c.want {
			t.Errorf("CookieDomainAllowed(%q, %q) = %v, want %v", c.host, c.attr, got, c.want)
		}
	}
}

func TestParseRejectsBadRules(t *testing.T) {
	bad := []string{
		"!*.bad.example",
		"*",
		"!",
		"a.*.b",
		"bad..example",
	}
	for _, line := range bad {
		if _, err := ParseString(line); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", line)
		}
	}
}

// TestParseRejectsOverCapLists: a list longer than the packed matcher
// can address is refused when parsed, not at its first lookup.
func TestParseRejectsOverCapLists(t *testing.T) {
	text := "a\nb\nc\n"
	if _, err := parse(strings.NewReader(text), 3); err != nil {
		t.Fatalf("list at the cap refused: %v", err)
	}
	_, err := parse(strings.NewReader(text+"// comment\nd\n"), 3)
	if err == nil || err.Error() != "line 5: list exceeds 3 rules" {
		t.Fatalf("over-cap list: err = %v, want line 5 refusal", err)
	}
}

func TestParseSections(t *testing.T) {
	l := fixture(t)
	var icann, private int
	for _, r := range l.Rules() {
		switch r.Section {
		case SectionICANN:
			icann++
		case SectionPrivate:
			private++
		default:
			t.Errorf("rule %v has unknown section", r)
		}
	}
	if icann != 19 || private != 3 {
		t.Errorf("sections = %d icann / %d private, want 19/3", icann, private)
	}
}

func TestParseInlineComments(t *testing.T) {
	l, err := ParseString("com\t// generic\nnet another-comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 || !l.Contains(Rule{Suffix: "com"}) || !l.Contains(Rule{Suffix: "net"}) {
		t.Errorf("inline comments mishandled: %v", l.Rules())
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	l := fixture(t)
	l.Version = "fixture-1"
	out := l.Serialize()
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !l.Equal(back) {
		t.Error("serialize/parse roundtrip lost rules")
	}
	if back.Fingerprint() != l.Fingerprint() {
		t.Error("roundtrip changed fingerprint")
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := MustParse("com\nnet\norg\n")
	b := MustParse("org\ncom\nnet\n")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on rule order")
	}
	c := MustParse("com\nnet\n")
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different rule sets share a fingerprint")
	}
}

func TestFingerprintDistinguishesRuleKind(t *testing.T) {
	a := MustParse("ck\n")
	b := MustParse("*.ck\n")
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("wildcard and plain rule share a fingerprint")
	}
}

func TestDiffLists(t *testing.T) {
	old := MustParse("com\nnet\n*.ck\n")
	new := MustParse("com\norg\n*.ck\n!www.ck\n")
	d := DiffLists(old, new)
	if len(d.Added) != 2 || len(d.Removed) != 1 {
		t.Fatalf("diff = +%d -%d, want +2 -1", len(d.Added), len(d.Removed))
	}
	if d.Removed[0].Suffix != "net" {
		t.Errorf("removed %v, want net", d.Removed[0])
	}
}

// TestEqualComparesSections: two lists holding the same keys, one rule
// in a different section, answer icann differently, so they are not
// Equal.
func TestEqualComparesSections(t *testing.T) {
	a := MustParse(beginICANN + "\ncom\nexample.com\n" + endICANN + "\n")
	b := MustParse(beginICANN + "\ncom\n" + endICANN + "\n" + beginPrivate + "\nexample.com\n" + endPrivate + "\n")
	_, icannA, _ := a.PublicSuffix("www.example.com")
	_, icannB, _ := b.PublicSuffix("www.example.com")
	if icannA == icannB {
		t.Fatalf("icann = %v under both lists; the fixture no longer differs", icannA)
	}
	if a.Equal(b) || b.Equal(a) {
		t.Error("lists differing in one rule's section are Equal")
	}
	if !a.Equal(a.Clone()) {
		t.Error("a list is not Equal to its clone")
	}
}

func TestWithWithoutRules(t *testing.T) {
	l := MustParse("com\n")
	r := Rule{Suffix: "net"}
	l2 := l.WithRules(r)
	if l.Len() != 1 || l2.Len() != 2 {
		t.Fatalf("WithRules mutated receiver or failed: %d/%d", l.Len(), l2.Len())
	}
	l3 := l2.WithoutRules(r)
	if !l3.Equal(l) {
		t.Error("WithoutRules did not invert WithRules")
	}
	// Duplicates are ignored.
	if l2.WithRules(r).Len() != 2 {
		t.Error("duplicate rule added")
	}
}

func TestRuleAccounting(t *testing.T) {
	cases := []struct {
		line              string
		components, label int
	}{
		{"com", 1, 1},
		{"co.uk", 2, 2},
		{"*.ck", 2, 2},
		{"!www.ck", 2, 1},
		{"a.b.c", 3, 3},
	}
	for _, c := range cases {
		r, err := ParseRule(c.line, SectionICANN)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", c.line, err)
		}
		if r.Components() != c.components {
			t.Errorf("%q Components = %d, want %d", c.line, r.Components(), c.components)
		}
		if r.Labels() != c.label {
			t.Errorf("%q Labels = %d, want %d", c.line, r.Labels(), c.label)
		}
		if r.String() != c.line {
			t.Errorf("%q round-trips to %q", c.line, r.String())
		}
	}
}

func TestRuleUnicode(t *testing.T) {
	cases := []struct{ line, want string }{
		{"com", "com"},
		{"*.ck", "*.ck"},
		{"!www.ck", "!www.ck"},
		{"公司.cn", "公司.cn"}, // stored punycoded, rendered back
	}
	for _, c := range cases {
		r, err := ParseRule(c.line, SectionICANN)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", c.line, err)
		}
		if got := r.Unicode(); got != c.want {
			t.Errorf("Unicode(%q) = %q, want %q", c.line, got, c.want)
		}
	}
}

func TestCookiejarAdapter(t *testing.T) {
	l := fixture(t)
	l.Version = "v-test"
	a := NewCookiejarAdapter(l)
	if got := a.PublicSuffix("www.example.co.uk"); got != "co.uk" {
		t.Errorf("adapter PublicSuffix = %q", got)
	}
	if !strings.Contains(a.String(), "v-test") {
		t.Errorf("adapter String = %q lacks version", a.String())
	}
}

func TestOrganizationalDomain(t *testing.T) {
	l := fixture(t)
	if got := l.OrganizationalDomain("_dmarc.mail.example.co.uk"); got != "example.co.uk" {
		t.Errorf("OrganizationalDomain = %q", got)
	}
}
