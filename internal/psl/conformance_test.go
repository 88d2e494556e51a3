package psl

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/idna"
)

// vector is one checkPublicSuffix(...) line.
type vector struct {
	line   int
	domain string // "" encodes null
	want   string // "" encodes null
}

// parseVectors reads the upstream test_psl.txt format: lines of
// checkPublicSuffix('<domain>', '<registrable>'); with null literals
// and // comments.
func parseVectors(t *testing.T, path string) []vector {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var out []vector
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if !strings.HasPrefix(line, "checkPublicSuffix(") || !strings.HasSuffix(line, ");") {
			t.Fatalf("%s:%d: unrecognised vector %q", path, lineno, line)
		}
		body := strings.TrimSuffix(strings.TrimPrefix(line, "checkPublicSuffix("), ");")
		parts := strings.SplitN(body, ",", 2)
		if len(parts) != 2 {
			t.Fatalf("%s:%d: malformed arguments %q", path, lineno, body)
		}
		out = append(out, vector{
			line:   lineno,
			domain: unquoteArg(strings.TrimSpace(parts[0])),
			want:   unquoteArg(strings.TrimSpace(parts[1])),
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// unquoteArg strips single quotes; "null" maps to the empty string.
func unquoteArg(s string) string {
	if s == "null" {
		return ""
	}
	return strings.Trim(s, "'")
}

// suffixSiteCase is one expectation about both PublicSuffix and Site.
type suffixSiteCase struct {
	host       string
	wantSuffix string
	wantSite   string // "" means ErrIsSuffix
	wantICANN  bool
}

// checkSuffixSite asserts one case against the library; the same
// answers are asserted through the HTTP API by internal/serve's
// TestConformanceViaHTTP, which consumes the shared vector file.
func checkSuffixSite(t *testing.T, l *List, c suffixSiteCase) {
	t.Helper()
	suffix, icann, err := l.PublicSuffix(c.host)
	if err != nil {
		t.Errorf("PublicSuffix(%q): %v", c.host, err)
		return
	}
	if suffix != c.wantSuffix || icann != c.wantICANN {
		t.Errorf("PublicSuffix(%q) = %q icann=%v, want %q icann=%v",
			c.host, suffix, icann, c.wantSuffix, c.wantICANN)
	}
	site, err := l.Site(c.host)
	if c.wantSite == "" {
		if err == nil {
			t.Errorf("Site(%q) = %q, want ErrIsSuffix", c.host, site)
		}
		return
	}
	if err != nil {
		t.Errorf("Site(%q): %v, want %q", c.host, err, c.wantSite)
		return
	}
	if site != c.wantSite {
		t.Errorf("Site(%q) = %q, want %q", c.host, site, c.wantSite)
	}
}

// TestWildcardExceptionInteraction pins how wildcard rules and their
// exceptions compose on the fixture list — the rule shapes (ck, kobe.jp,
// compute.amazonaws.com) behind the paper's trickiest cookie-scoping
// cases.
func TestWildcardExceptionInteraction(t *testing.T) {
	l := fixture(t)
	cases := []suffixSiteCase{
		// *.ck with !www.ck: the exception carves one name back out.
		{"ck", "ck", "", false},                     // bare TLD: implicit rule, wildcard needs an extra label
		{"test.ck", "test.ck", "", true},            // wildcard makes any 2-label name a suffix
		{"b.test.ck", "test.ck", "b.test.ck", true}, // eTLD+1 under a wildcard suffix
		{"www.ck", "ck", "www.ck", true},            // exception: www.ck is registrable
		{"www.www.ck", "ck", "www.ck", true},        // subdomain of the exception name
		{"a.www.www.ck", "ck", "www.ck", true},      // deeper still
		// *.kobe.jp with !city.kobe.jp alongside plain jp.
		{"kobe.jp", "jp", "kobe.jp", true},                  // wildcard idle without the extra label; jp rule prevails
		{"c.kobe.jp", "c.kobe.jp", "", true},                // wildcard promotes c.kobe.jp to a suffix
		{"b.c.kobe.jp", "c.kobe.jp", "b.c.kobe.jp", true},   // registrable under the wildcard
		{"city.kobe.jp", "kobe.jp", "city.kobe.jp", true},   // exception wins over the wildcard
		{"a.city.kobe.jp", "kobe.jp", "city.kobe.jp", true}, // and scopes its whole subtree
		// Private-section wildcard without exceptions.
		{"compute.amazonaws.com", "com", "amazonaws.com", true}, // wildcard needs a label to its left
		{"x.compute.amazonaws.com", "x.compute.amazonaws.com", "", false},
		{"y.x.compute.amazonaws.com", "x.compute.amazonaws.com", "y.x.compute.amazonaws.com", false},
	}
	for _, c := range cases {
		checkSuffixSite(t, l, c)
	}
}

// TestULabelQueries pins IDNA handling: U-label (Unicode) queries in
// any case mix must answer identically to their punycoded A-label
// twins, always in canonical A-label form.
func TestULabelQueries(t *testing.T) {
	l := fixture(t)
	cases := []suffixSiteCase{
		{"公司.cn", "xn--55qx5d.cn", "", true},
		{"食狮.公司.cn", "xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn", true},
		{"www.食狮.公司.cn", "xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn", true},
		{"WWW.食狮.公司.CN", "xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn", true},
		{"xn--85x722f.xn--55qx5d.cn", "xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn", true},
		{"食狮.XN--55QX5D.cn", "xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn", true},
		{"shishi.公司.cn", "xn--55qx5d.cn", "shishi.xn--55qx5d.cn", true},
		{"食狮.com.cn", "com.cn", "xn--85x722f.com.cn", true},
	}
	for _, c := range cases {
		checkSuffixSite(t, l, c)
	}
	// U-label and A-label forms of the same name answer identically.
	pairs := [][2]string{
		{"食狮.公司.cn", "xn--85x722f.xn--55qx5d.cn"},
		{"www.食狮.公司.cn", "www.xn--85x722f.xn--55qx5d.cn"},
	}
	for _, p := range pairs {
		su, _, err1 := l.PublicSuffix(p[0])
		sa, _, err2 := l.PublicSuffix(p[1])
		if err1 != nil || err2 != nil || su != sa {
			t.Errorf("U/A-label divergence %q vs %q: %q %v / %q %v", p[0], p[1], su, err1, sa, err2)
		}
	}
}

// siteWith derives the registrable domain using an explicit matcher,
// mirroring List.siteASCII, so the shared vectors can be replayed
// against every matcher implementation rather than only the default.
func siteWith(m Matcher, name string) (string, error) {
	ascii, err := Normalize(name)
	if err != nil {
		return "", err
	}
	res := m.Match(ascii)
	n := res.SuffixLabels
	if n <= 0 {
		n = 1
	}
	if domain.CountLabels(ascii) <= n {
		return "", ErrIsSuffix
	}
	return domain.LastLabels(ascii, n+1), nil
}

// TestConformanceAllMatchers replays the upstream vector file through
// the packed matcher and the linear reference, holding both to the
// published expectations rather than only to each other.
func TestConformanceAllMatchers(t *testing.T) {
	l := fixture(t)
	vectors := parseVectors(t, "testdata/test_psl.txt")
	matchers := []struct {
		name string
		m    Matcher
	}{
		{"linear", NewLinearMatcher(l)},
		{"packed", NewPackedMatcher(l)},
	}
	for _, mc := range matchers {
		for _, v := range vectors {
			if v.domain == "" {
				continue
			}
			got, err := siteWith(mc.m, v.domain)
			if v.want == "" {
				if err == nil {
					t.Errorf("%s line %d: site(%q) = %q, want null", mc.name, v.line, v.domain, got)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s line %d: site(%q) error %v, want %q", mc.name, v.line, v.domain, err, v.want)
				continue
			}
			wantASCII, aerr := idna.ToASCII(v.want)
			if aerr != nil {
				t.Fatalf("line %d: bad expected value %q: %v", v.line, v.want, aerr)
			}
			if got != wantASCII {
				t.Errorf("%s line %d: site(%q) = %q, want %q", mc.name, v.line, v.domain, got, wantASCII)
			}
		}
	}
}

// TestConformanceFile runs the embedded upstream-format vectors against
// the fixture list, proving the engine consumes the official
// conformance suite unmodified.
func TestConformanceFile(t *testing.T) {
	l := fixture(t)
	vectors := parseVectors(t, "testdata/test_psl.txt")
	if len(vectors) < 60 {
		t.Fatalf("only %d vectors parsed", len(vectors))
	}
	for _, v := range vectors {
		if v.domain == "" {
			// null input: nothing to check beyond "no panic" paths,
			// which Site's validation covers.
			if _, err := l.Site(""); err == nil {
				t.Errorf("line %d: Site(null) succeeded", v.line)
			}
			continue
		}
		got, err := l.Site(v.domain)
		if v.want == "" {
			if err == nil {
				t.Errorf("line %d: Site(%q) = %q, want null", v.line, v.domain, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("line %d: Site(%q) error %v, want %q", v.line, v.domain, err, v.want)
			continue
		}
		// Expected values may be in U-label form; our engine answers
		// in canonical A-label form.
		wantASCII, aerr := idna.ToASCII(v.want)
		if aerr != nil {
			t.Fatalf("line %d: bad expected value %q: %v", v.line, v.want, aerr)
		}
		if got != wantASCII {
			t.Errorf("line %d: Site(%q) = %q, want %q", v.line, v.domain, got, wantASCII)
		}
	}
}
