package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/psl"
)

// fixtureList mirrors the conformance fixture of internal/psl (the
// rules behind testdata/test_psl.txt); the HTTP conformance test cross
// checks the two stay in sync.
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

func fixture(t testing.TB) *psl.List {
	t.Helper()
	l, err := psl.ParseString(fixtureList)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return l
}

// checkAgainstLibrary asserts one Resolve answer is byte-for-byte the
// library's answer for the same host.
func checkAgainstLibrary(t *testing.T, l *psl.List, host string, a Answer, err error) {
	t.Helper()
	suffix, icann, serr := l.PublicSuffix(host)
	if serr != nil {
		if err == nil {
			t.Errorf("Resolve(%q) = %+v, but library rejects: %v", host, a, serr)
		}
		return
	}
	if err != nil {
		t.Errorf("Resolve(%q) errored %v, but library answers %q", host, err, suffix)
		return
	}
	if a.ETLD != suffix || a.ICANN != icann {
		t.Errorf("Resolve(%q): etld=%q icann=%v, library %q %v", host, a.ETLD, a.ICANN, suffix, icann)
	}
	site, serr := l.Site(host)
	if serr != nil {
		if !errors.Is(serr, psl.ErrIsSuffix) {
			t.Fatalf("Site(%q): %v", host, serr)
		}
		if !a.IsSuffix || a.Site != "" {
			t.Errorf("Resolve(%q): site=%q is_suffix=%v, library says bare suffix", host, a.Site, a.IsSuffix)
		}
		return
	}
	if a.Site != site || a.IsSuffix {
		t.Errorf("Resolve(%q): site=%q is_suffix=%v, library %q", host, a.Site, a.IsSuffix, site)
	}
}

// TestResolveMatchesLibrary pins the serving answer to the library
// answer across every interesting rule shape of the fixture.
func TestResolveMatchesLibrary(t *testing.T) {
	l := fixture(t)
	snap := NewSnapshot(l, -1)
	hosts := []string{
		"com", "example.com", "WwW.Example.COM", "a.b.example.com",
		"uk", "example.co.uk", "b.example.co.uk", "gov.uk",
		"jp", "test.jp", "ide.kyoto.jp", "b.ide.kyoto.jp", "a.b.ide.kyoto.jp",
		"c.kobe.jp", "b.c.kobe.jp", "city.kobe.jp", "www.city.kobe.jp",
		"ck", "test.ck", "b.test.ck", "www.ck", "www.www.ck",
		"k12.ak.us", "test.k12.ak.us",
		"公司.cn", "食狮.公司.cn", "www.食狮.公司.cn", "xn--55qx5d.cn",
		"blogspot.com", "myblog.blogspot.com",
		"x.compute.amazonaws.com", "a.x.compute.amazonaws.com",
		"unlisted", "deep.unlisted.zone",
		"", "192.168.0.1", "[::1]", "bad..name", "-x.com",
	}
	for _, host := range hosts {
		a, err := snap.Resolve(host)
		checkAgainstLibrary(t, l, host, a, err)
	}
}

// TestLookupCounters checks ok/error accounting and that a repeated
// lookup answers identically.
func TestLookupCounters(t *testing.T) {
	s := New(fixture(t), -1, Options{})
	first, err := s.Lookup("www.example.co.uk")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Lookup("www.example.co.uk")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("repeated answer differs: %+v vs %+v", first, second)
	}
	if _, err := s.Lookup("192.168.0.1"); err == nil {
		t.Fatal("IP lookup did not error")
	}
	if oks, errs := s.oks.Load(), s.errs.Load(); oks != 2 || errs != 1 {
		t.Errorf("counters = %d ok %d error, want 2/1", oks, errs)
	}
}

// TestSwapChangesAnswers checks a swap changes the answers when the
// rules changed.
func TestSwapChangesAnswers(t *testing.T) {
	old := psl.MustParse("com\n")
	new_ := psl.MustParse("com\nexample.com\n")
	s := New(old, 0, Options{})
	a, _ := s.Lookup("www.example.com")
	if a.Site != "example.com" {
		t.Fatalf("pre-swap site = %q", a.Site)
	}
	s.Swap(new_, 1)
	a, _ = s.Lookup("www.example.com")
	if a.Site != "www.example.com" || a.Seq != 1 {
		t.Errorf("post-swap answer %+v, want site www.example.com at seq 1", a)
	}
	if got := s.Swaps(); got != 2 {
		t.Errorf("Swaps() = %d, want 2", got)
	}
}

func newHistoryService(t testing.TB, opts Options) (*Service, *history.History) {
	t.Helper()
	h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 60})
	return NewFromHistory(h, h.Len()-1, opts), h
}

// TestLookupAt checks versioned lookups answer with the requested
// historical version.
func TestLookupAt(t *testing.T) {
	s, h := newHistoryService(t, Options{})
	for _, seq := range []int{0, h.Len() / 2, h.Len() - 1} {
		a, err := s.LookupAt("www.example.com", seq)
		if err != nil {
			t.Fatalf("LookupAt seq %d: %v", seq, err)
		}
		if a.Seq != seq {
			t.Errorf("LookupAt(%d) answered for seq %d", seq, a.Seq)
		}
		want, _, err := h.ListAt(seq).PublicSuffix("www.example.com")
		if err != nil || a.ETLD != want {
			t.Errorf("LookupAt(%d) etld %q, library %q (%v)", seq, a.ETLD, want, err)
		}
	}
	if _, err := s.LookupAt("example.com", h.Len()); err == nil {
		t.Error("out-of-range version did not error")
	}
}

// TestSetVersion checks the service can follow history versions live.
func TestSetVersion(t *testing.T) {
	s, h := newHistoryService(t, Options{})
	if err := s.SetVersion(0); err != nil {
		t.Fatal(err)
	}
	if got := s.Current().Seq; got != 0 {
		t.Errorf("current seq = %d, want 0", got)
	}
	if err := s.SetVersion(h.Len()); err == nil {
		t.Error("out-of-range SetVersion did not error")
	}
	bare := New(psl.MustParse("com\n"), -1, Options{})
	if err := bare.SetVersion(0); err == nil {
		t.Error("SetVersion without history did not error")
	}
}

// decode unmarshals a JSON response body.
func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v
}

// TestHTTPLookup exercises the JSON API end to end.
func TestHTTPLookup(t *testing.T) {
	s, h := newHistoryService(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + LookupPath + "?host=www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	a := decode[Answer](t, resp)
	if a.Site != "example.com" || a.ETLD != "com" || a.Seq != h.Len()-1 {
		t.Errorf("answer %+v", a)
	}

	// Versioned lookup.
	resp, err = http.Get(ts.URL + LookupPath + "?host=www.example.com&version=0")
	if err != nil {
		t.Fatal(err)
	}
	if a := decode[Answer](t, resp); a.Seq != 0 {
		t.Errorf("versioned answer %+v, want seq 0", a)
	}

	// Error paths: missing host, invalid host, bad version, out of range.
	for query, wantCode := range map[string]int{
		"?host=":                       http.StatusBadRequest,
		"?host=192.168.0.1":            http.StatusBadRequest,
		"?host=a.com&version=notanint": http.StatusBadRequest,
		"?host=a.com&version=999999":   http.StatusNotFound,
		"?host=..":                     http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + LookupPath + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode {
			t.Errorf("%s: status %s, want %d", query, resp.Status, wantCode)
		}
		body := decode[map[string]any](t, resp)
		if body["error"] == "" {
			t.Errorf("%s: no error field in %v", query, body)
		}
	}
}

// TestHTTPVersionAndHealth checks the metadata endpoints, including the
// cache counters the acceptance criteria require on /healthz.
func TestHTTPVersionAndHealth(t *testing.T) {
	s, h := newHistoryService(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + VersionPath)
	if err != nil {
		t.Fatal(err)
	}
	v := decode[versionBody](t, resp)
	if v.Seq != h.Len()-1 || v.Rules != h.Meta(v.Seq).Rules || v.Swaps != 1 {
		t.Errorf("version body %+v", v)
	}
	if v.Source != "local" || v.LagSeqs != 0 {
		t.Errorf("source/lag = %q/%d, want local/0 when SetSource never called", v.Source, v.LagSeqs)
	}

	// Drive two lookups so the admission counter moves.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + LookupPath + "?host=a.example.com")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	hb := decode[healthBody](t, resp)
	if hb.Status != "ok" || hb.Admitted != 2 {
		t.Errorf("health body %+v", hb)
	}
	if hb.MaxInFlight != DefaultMaxInFlight {
		t.Errorf("max_in_flight = %d", hb.MaxInFlight)
	}
	if hb.Source != "local" || hb.LagSeqs != 0 {
		t.Errorf("health source/lag = %q/%d, want local/0", hb.Source, hb.LagSeqs)
	}
}

// TestSetSource checks the follower identity surfaces on both
// endpoints, with the lag probe consulted per request.
func TestSetSource(t *testing.T) {
	s := New(fixture(t), 7, Options{})
	var lag atomic.Int64
	lag.Store(3)
	s.SetSource("follower", lag.Load)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	hb := decode[healthBody](t, resp)
	if hb.Source != "follower" || hb.LagSeqs != 3 {
		t.Errorf("health source/lag = %q/%d, want follower/3", hb.Source, hb.LagSeqs)
	}

	lag.Store(0)
	resp, err = http.Get(ts.URL + VersionPath)
	if err != nil {
		t.Fatal(err)
	}
	v := decode[versionBody](t, resp)
	if v.Source != "follower" || v.LagSeqs != 0 {
		t.Errorf("version source/lag = %q/%d, want follower/0", v.Source, v.LagSeqs)
	}
}

// TestSetHealthLimits turns /healthz into a readiness probe: beyond the
// armed lag or snapshot-age limit it answers 503 with the violated
// limits spelled out, and recovers to 200 the moment the condition
// clears — load balancers route on exactly this flip.
func TestSetHealthLimits(t *testing.T) {
	s := New(fixture(t), 7, Options{})
	var lag atomic.Int64
	s.SetSource("follower", lag.Load)
	ts := httptest.NewServer(s)
	defer ts.Close()

	health := func() (int, healthBody) {
		t.Helper()
		resp, err := http.Get(ts.URL + HealthPath)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, decode[healthBody](t, resp)
	}

	// Unarmed: any lag is healthy.
	lag.Store(100)
	if code, hb := health(); code != http.StatusOK || hb.Status != "ok" || len(hb.Reasons) != 0 {
		t.Fatalf("unarmed healthz = %d %+v, want plain 200 ok", code, hb)
	}

	// Armed and violated: 503 with the lag spelled out.
	s.SetHealthLimits(10, 0)
	code, hb := health()
	if code != http.StatusServiceUnavailable || hb.Status != "degraded" {
		t.Fatalf("lagging healthz = %d status %q, want 503 degraded", code, hb.Status)
	}
	if len(hb.Reasons) != 1 || !strings.Contains(hb.Reasons[0], "lag 100") {
		t.Errorf("reasons %q do not name the lag", hb.Reasons)
	}

	// Lag within bounds again: healthy without re-arming.
	lag.Store(10)
	if code, hb := health(); code != http.StatusOK || hb.Status != "ok" {
		t.Fatalf("recovered healthz = %d %+v, want 200 ok", code, hb)
	}

	// Snapshot age: an armed tiny limit degrades, and both violations
	// surface together.
	lag.Store(999)
	s.SetHealthLimits(10, time.Nanosecond)
	time.Sleep(time.Millisecond)
	code, hb = health()
	if code != http.StatusServiceUnavailable || len(hb.Reasons) != 2 {
		t.Fatalf("doubly degraded healthz = %d %+v, want 503 with 2 reasons", code, hb)
	}
	if !strings.Contains(hb.Reasons[1], "snapshot age") {
		t.Errorf("reasons %q do not name the snapshot age", hb.Reasons)
	}

	// A fresh swap resets the age; disarming resets everything.
	lag.Store(0)
	s.Swap(fixture(t), 8)
	s.SetHealthLimits(0, time.Hour)
	if code, hb := health(); code != http.StatusOK || len(hb.Reasons) != 0 {
		t.Fatalf("healthz after swap = %d %+v, want 200", code, hb)
	}
	s.SetHealthLimits(0, 0)
	lag.Store(1 << 40)
	if code, _ := health(); code != http.StatusOK {
		t.Fatalf("disarmed healthz = %d, want 200", code)
	}
}

// TestAdmissionControl fills the admission semaphore (as in-flight
// requests would) and checks the next lookup is rejected with 503 +
// Retry-After, then admitted again once capacity frees up.
func TestAdmissionControl(t *testing.T) {
	s := New(fixture(t), -1, Options{MaxInFlight: 2})
	s.tokens <- struct{}{}
	s.tokens <- struct{}{}
	req := httptest.NewRequest(http.MethodGet, LookupPath+"?host=a.example.com", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with full admission, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After")
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("503 body %q", rec.Body.String())
	}
	if s.rejected.Load() != 1 {
		t.Errorf("rejected counter = %d", s.rejected.Load())
	}
	// Free a token: requests are admitted again.
	<-s.tokens
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after freeing a token", rec.Code)
	}
	<-s.tokens
}

// TestGracefulShutdown checks ListenAndServe drains and returns nil on
// context cancellation.
func TestGracefulShutdown(t *testing.T) {
	s := New(fixture(t), -1, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		select {
		case err := <-errc:
			done <- err
		case <-ctx.Done():
			sctx, c := context.WithTimeout(context.Background(), 5*time.Second)
			defer c()
			if err := srv.Shutdown(sctx); err != nil {
				done <- err
				return
			}
			if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
				done <- err
				return
			}
			done <- nil
		}
	}()
	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestListenAndServeHelper drives the exported helper over a real
// ephemeral port.
func TestListenAndServeHelper(t *testing.T) {
	s := New(fixture(t), -1, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free it for ListenAndServe; raciness acceptable in test
	srv := &http.Server{Addr: addr, Handler: s}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ListenAndServe(ctx, srv, 5*time.Second) }()
	// Wait for it to come up.
	base := "http://" + addr
	var up bool
	for i := 0; i < 100; i++ {
		if resp, err := http.Get(base + HealthPath); err == nil {
			resp.Body.Close()
			up = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !up {
		t.Fatal("server never came up")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
}

// TestConcurrentLookupsSameHost checks the cache's single-flightless
// design stays correct when many goroutines race the same cold key.
func TestConcurrentLookupsSameHost(t *testing.T) {
	s := New(fixture(t), -1, Options{})
	var wg sync.WaitGroup
	answers := make([]Answer, 32)
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := s.Lookup("deep.sub.example.co.uk")
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = a
		}(i)
	}
	wg.Wait()
	for _, a := range answers {
		if a.Site != "example.co.uk" {
			t.Fatalf("answer %+v", a)
		}
	}
}

// TestAnswerJSONShape pins the wire format field names.
func TestAnswerJSONShape(t *testing.T) {
	s := New(fixture(t), -1, Options{})
	a, err := s.Lookup("b.example.co.uk")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"query"`, `"host"`, `"etld"`, `"site"`, `"icann"`, `"rule"`, `"section"`, `"version"`, `"seq"`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("JSON %s missing field %s", raw, field)
		}
	}
}
