package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"repro/internal/psl"
)

// vectorsPath is the upstream-format conformance file shared with
// internal/psl; the serving layer must give identical answers.
const vectorsPath = "../psl/testdata/test_psl.txt"

// readVectors parses checkPublicSuffix('<domain>', '<registrable>');
// lines (null encodes as ""). It is a deliberate re-implementation of
// the parser in internal/psl's tests so the two suites stay
// independent.
func readVectors(t *testing.T) [][2]string {
	t.Helper()
	f, err := os.Open(vectorsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	unquote := func(s string) string {
		if s == "null" {
			return ""
		}
		return strings.Trim(s, "'")
	}
	var out [][2]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "checkPublicSuffix(") {
			continue
		}
		body := strings.TrimSuffix(strings.TrimPrefix(line, "checkPublicSuffix("), ");")
		parts := strings.SplitN(body, ",", 2)
		if len(parts) != 2 {
			t.Fatalf("malformed vector %q", line)
		}
		out = append(out, [2]string{
			unquote(strings.TrimSpace(parts[0])),
			unquote(strings.TrimSpace(parts[1])),
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) < 60 {
		t.Fatalf("only %d vectors parsed", len(out))
	}
	return out
}

// TestConformanceViaHTTP runs every upstream conformance vector through
// the HTTP API and asserts the answer is identical to the library's —
// the byte-for-byte serving/offline consistency the design requires.
func TestConformanceViaHTTP(t *testing.T) {
	l := fixture(t)
	s := New(l, -1, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, v := range readVectors(t) {
		domain, want := v[0], v[1]
		resp, err := http.Get(ts.URL + LookupPath + "?host=" + url.QueryEscape(domain))
		if err != nil {
			t.Fatal(err)
		}
		libSite, libErr := l.Site(domain)

		if domain == "" || libErr != nil && !errors.Is(libErr, psl.ErrIsSuffix) {
			// Library rejects the input outright; the API must 400.
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("lookup(%q): status %s, library err %v", domain, resp.Status, libErr)
			}
			resp.Body.Close()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("lookup(%q): status %s", domain, resp.Status)
			resp.Body.Close()
			continue
		}
		var a Answer
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		// API answer vs library answer.
		if libErr != nil { // bare public suffix
			if !a.IsSuffix || a.Site != "" {
				t.Errorf("lookup(%q): api %+v, library says bare suffix", domain, a)
			}
		} else if a.Site != libSite {
			t.Errorf("lookup(%q): api site %q, library %q", domain, a.Site, libSite)
		}

		// API answer vs the upstream vector's expectation.
		if want == "" {
			if a.Site != "" {
				t.Errorf("lookup(%q): api site %q, vector wants null", domain, a.Site)
			}
			continue
		}
		wantSite, _, err := normalizeAndEcho(want)
		if err != nil {
			t.Fatalf("bad vector expectation %q: %v", want, err)
		}
		if a.Site != wantSite {
			t.Errorf("lookup(%q): api site %q, vector wants %q", domain, a.Site, wantSite)
		}
	}
}

// normalizeAndEcho converts a vector expectation (possibly in U-label
// form) to the canonical A-label form the API answers in.
func normalizeAndEcho(name string) (string, bool, error) {
	ascii, err := psl.Normalize(name)
	return ascii, err == nil, err
}

// FuzzResolveAgreesWithMap fuzzes arbitrary host inputs against the
// fixture snapshot and asserts the serving answer equals, in every
// field, the answer of a snapshot over the linear reference matcher.
// (The name is from when the reference was the library's map matcher;
// it is kept so the fuzz target's test IDs stay stable.)
func FuzzResolveAgreesWithMap(f *testing.F) {
	for _, seed := range []string{
		"www.example.com", "b.c.kobe.jp", "city.kobe.jp", "www.ck", "x.ck",
		"食狮.公司.cn", "xn--55qx5d.cn", "a.b.compute.amazonaws.com",
		"", "..", "192.168.0.1", strings.Repeat("a.", 60) + "com", "UPPER.Example.COM",
	} {
		f.Add(seed)
	}
	l := psl.MustParse(fixtureList)
	snap := NewSnapshot(l, -1)
	ref := NewSnapshotWith(l, -1, psl.NewLinearMatcher(l))
	f.Fuzz(func(t *testing.T, host string) {
		a, err := snap.Resolve(host)
		want, rerr := ref.Resolve(host)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Resolve(%q) err=%v, reference err=%v", host, err, rerr)
		}
		if err != nil {
			if !errors.Is(err, psl.ErrNotDomain) {
				t.Fatalf("Resolve(%q) err=%v, want ErrNotDomain", host, err)
			}
			return
		}
		if a != want {
			t.Fatalf("Resolve(%q) = %+v, reference %+v", host, a, want)
		}
	})
}
