package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/failpoint"
	"repro/internal/fetch"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/psl"
	"repro/internal/serve"
	"repro/internal/submit"
)

// testHistory is a down-scaled history: the endpoints behave the same,
// the test suite stays fast.
var testHistory = history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 50})

// bootServer starts the combined handler on an ephemeral port and
// returns its base URL plus the handles the smoke tests poke.
func bootServer(t *testing.T, failRate float64) (string, *serve.Service, *fetch.Server) {
	t.Helper()
	seq := testHistory.Len() - 1
	cfg, err := parseFlags([]string{"-failrate", fmt.Sprint(failRate)})
	if err != nil {
		t.Fatal(err)
	}
	handler, svc, fs, _, _ := newHandler(testHistory, seq, cfg, newObsPlane("origin"))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		go func() { done <- srv.Serve(ln) }()
		<-ctx.Done()
		sctx, c := context.WithTimeout(context.Background(), 5*time.Second)
		defer c()
		srv.Shutdown(sctx)
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("server exited: %v", err)
		}
	})
	return "http://" + ln.Addr().String(), svc, fs
}

// TestSmokeEndToEnd boots the server and walks every mounted route.
func TestSmokeEndToEnd(t *testing.T) {
	base, _, _ := bootServer(t, 0)
	client := &http.Client{Timeout: 10 * time.Second}

	// Raw current list: parseable and the version the server announces.
	resp, err := client.Get(base + fetch.ListPath)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", fetch.ListPath, resp.Status, err)
	}
	l, err := psl.ParseString(string(body))
	if err != nil {
		t.Fatalf("current list does not parse: %v", err)
	}
	if l.Len() != testHistory.Meta(testHistory.Len()-1).Rules {
		t.Errorf("current list has %d rules, want %d", l.Len(), testHistory.Meta(testHistory.Len()-1).Rules)
	}

	// Raw historical version.
	resp, err = client.Get(base + "/v/3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v/3: %s", resp.Status)
	}
	if l, err := psl.ParseString(string(body)); err != nil || l.Len() != testHistory.Meta(3).Rules {
		t.Errorf("/v/3 returned %d rules (err %v), want %d", l.Len(), err, testHistory.Meta(3).Rules)
	}

	// Query API: lookup, version, healthz.
	resp, err = client.Get(base + serve.LookupPath + "?host=www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	var a serve.Answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || a.Site != "example.com" || a.Seq != testHistory.Len()-1 {
		t.Errorf("lookup answer %+v (status %s)", a, resp.Status)
	}

	resp, err = client.Get(base + serve.VersionPath)
	if err != nil {
		t.Fatal(err)
	}
	var vb map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if int(vb["seq"].(float64)) != testHistory.Len()-1 {
		t.Errorf("version body %v", vb)
	}

	resp, err = client.Get(base + serve.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hb), `"status":"ok"`) {
		t.Errorf("healthz: %s %s", resp.Status, hb)
	}
	if !strings.Contains(string(hb), `"cache_hits"`) || !strings.Contains(string(hb), `"cache_misses"`) {
		t.Errorf("healthz missing cache counters: %s", hb)
	}

	// Unknown path 404s through the raw-list server.
	resp, err = client.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: %s", resp.Status)
	}
}

// TestFailrate503Path checks -failrate affects the raw-list endpoints
// (clients must fall back) while the query API stays up.
func TestFailrate503Path(t *testing.T) {
	base, _, fs := bootServer(t, 1.0)
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Get(base + fetch.ListPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failrate 1.0: raw list status %s, want 503", resp.Status)
	}

	// The lookup API is mounted before the raw server, so it keeps
	// answering even while list downloads fail.
	resp, err = client.Get(base + serve.LookupPath + "?host=a.example.com")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("lookup during failrate 1.0: %s", resp.Status)
	}

	// Healing the failure rate restores the raw path.
	fs.SetFailureRate(0)
	resp, err = client.Get(base + fetch.ListPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after SetFailureRate(0): %s", resp.Status)
	}
	if reqs, fails := fs.Stats(); reqs < 2 || fails < 1 {
		t.Errorf("stats = %d requests %d failures", reqs, fails)
	}
}

// TestVersionedLookupAgainstRawList cross-checks the two halves of the
// server: a versioned /v1/lookup answer must equal the answer computed
// from the raw /v/<seq> download.
func TestVersionedLookupAgainstRawList(t *testing.T) {
	base, _, _ := bootServer(t, 0)
	client := &http.Client{Timeout: 10 * time.Second}
	const seq = 7
	const host = "www.example.co.uk"

	resp, err := client.Get(base + "/v/7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	l, err := psl.ParseString(string(body))
	if err != nil {
		t.Fatal(err)
	}
	wantSuffix, _, err := l.PublicSuffix(host)
	if err != nil {
		t.Fatal(err)
	}

	resp, err = client.Get(base + serve.LookupPath + "?host=" + host + "&version=7")
	if err != nil {
		t.Fatal(err)
	}
	var a serve.Answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if a.Seq != seq || a.ETLD != wantSuffix {
		t.Errorf("versioned lookup %+v, raw-list oracle suffix %q", a, wantSuffix)
	}
}

// TestParseFlagsErrors pins the contract that every invalid invocation
// fails in parseFlags — before any listener binds or history generates.
func TestParseFlagsErrors(t *testing.T) {
	bad := [][]string{
		{"-failrate", "1.5"},
		{"-failrate", "-0.1"},
		{"-age", "-3"},
		{"-max-in-flight", "0"},
		{"-addr", ""},
		{"-no-such-flag"},
		{"stray-positional"},
		{"-state-dir", "/tmp/x"},                           // requires -follow
		{"-max-lag", "5"},                                  // requires -follow
		{"-follow", "http://x", "-max-lag", "-1"},          // negative
		{"-max-snapshot-age", "-1s"},                       // negative
		{"-request-timeout", "-1s"},                        // negative
		{"-relay"},                                         // requires -follow
		{"-retain", "32"},                                  // requires -relay
		{"-follow", "http://x", "-retain", "32"},           // requires -relay
		{"-follow", "http://x", "-relay", "-retain", "-1"}, // negative
		{"-follow", "http://x", "-submit"},                 // origin mode only
		{"-submit-state-dir", "/tmp/x"},                    // requires -submit
		{"-submit-scale", "0.1"},                           // requires -submit
		{"-submit-max-flip", "0.5"},                        // requires -submit
		{"-submit", "-submit-scale", "-1"},                 // negative
		{"-submit", "-submit-max-flip", "1.5"},             // out of range
		{"-failpoints", "dist.state.rename"},               // no action
		{"-failpoints", "dist.state.rename=explode(1)"},    // unknown kind
		{"-failpoints", "dist.state.rename=err(2)"},        // probability out of range
		{"-failpoints", "x=err(1,errno=EWHAT)"},            // unknown errno
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted invalid flags", args)
		}
	}

	cfg, err := parseFlags([]string{"-failrate", "0.25", "-age", "30", "-debug-addr", "127.0.0.1:0",
		"-failpoints", "dist.state.rename=err(1);submit.persist.sync=crash(0.2,seed=7)"})
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if cfg.failRate != 0.25 || cfg.age != 30 || cfg.debugAddr == "" {
		t.Errorf("parsed config %+v", cfg)
	}
	if cfg.failpoints != "dist.state.rename=err(1);submit.persist.sync=crash(0.2,seed=7)" {
		t.Errorf("failpoints spec not kept: %q", cfg.failpoints)
	}
}

// requiredFamilies is the minimum metric surface the acceptance bar
// demands on /metrics: families spanning serve, history-compile, fetch
// and experiments, plus process-level gauges.
var requiredFamilies = []string{
	"psl_serve_lookups_total",
	"psl_serve_lookup_duration_seconds",
	"psl_serve_swaps_total",
	"psl_serve_snapshot_age_seconds",
	"psl_serve_snapshot_rules",
	"psl_serve_cache_entries",
	"psl_serve_cache_bytes",
	"psl_serve_inflight_requests",
	"psl_serve_admitted_total",
	"psl_serve_rejected_total",
	"psl_compile_total",
	"psl_compile_duration_seconds",
	"psl_compile_cache_entries",
	"psl_fetch_requests_total",
	"psl_fetch_failures_injected_total",
	"psl_fetch_renders_total",
	"psl_fetch_render_cache_hits_total",
	"psl_fetch_not_modified_total",
	"psl_sweep_runs_total",
	"psl_sweep_versions_total",
	"psl_sweep_version_duration_seconds",
	"psl_sweep_active_workers",
	"psl_sweep_worker_busy_seconds_total",
	"psl_sweep_utilization_ratio",
	"psl_process_uptime_seconds",
	"psl_process_goroutines",
	"psl_http_panics_total",
	"psl_resilience_deadline_exceeded_total",
	"psl_failpoint_triggers_total",
}

// TestMetricsExposition scrapes the mounted /metrics endpoint after a
// little traffic and checks it is a valid Prometheus text document
// exposing every required family.
func TestMetricsExposition(t *testing.T) {
	base, _, _ := bootServer(t, 0)
	client := &http.Client{Timeout: 10 * time.Second}

	for _, path := range []string{
		serve.LookupPath + "?host=www.example.com",
		serve.LookupPath + "?host=www.example.com",
		serve.LookupPath + "?host=a.example.co.uk&version=3",
		fetch.ListPath,
	} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := client.Get(base + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	have := make(map[string]bool, len(families))
	for _, f := range families {
		have[f] = true
	}
	for _, want := range requiredFamilies {
		if !have[want] {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	if len(families) < 12 {
		t.Errorf("/metrics exposes %d families, acceptance floor is 12", len(families))
	}
	if !bytes.Contains(body, []byte(`psl_serve_lookups_total{result="hit"} 1`)) {
		t.Errorf("hit counter did not move:\n%s", body)
	}
}

// syncBuffer lets the run() goroutine write stdout while the test polls
// it without racing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServesBothListeners boots run() end to end on ephemeral ports
// with the debug listener enabled, scrapes both servers, and checks a
// clean shutdown on context cancellation.
func TestRunServesBothListeners(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, &out) }()

	// The announce lines carry the bound addresses.
	extract := func(s, prefix string) string {
		i := strings.Index(s, prefix)
		if i < 0 {
			return ""
		}
		rest := s[i+len(prefix):]
		if j := strings.IndexAny(rest, "/ \n"); j >= 0 {
			rest = rest[:j]
		}
		return rest
	}
	var base, debug string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" || debug == "" {
		if time.Now().After(deadline) {
			t.Fatalf("run did not announce listeners; output so far:\n%s", out.String())
		}
		s := out.String()
		base = extract(s, "serving ")
		if base != "" {
			base = extract(s[strings.Index(s, "on http://"):], "on http://")
		}
		debug = extract(s, "debug endpoints (pprof, metrics) on http://")
		time.Sleep(20 * time.Millisecond)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	for _, url := range []string{
		"http://" + base + serve.HealthPath,
		"http://" + base + serve.MetricsPath,
		"http://" + debug + serve.MetricsPath,
		"http://" + debug + "/debug/pprof/",
	} {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", url, resp.Status)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
}

// TestFailpointsFlagArmsAndDisarms: -failpoints arms its sites for
// exactly the lifetime of run() — in-process injection fires while the
// server is up, /metrics exports the per-site trigger family, and the
// sites are disarmed again once run returns.
func TestFailpointsFlagArmsAndDisarms(t *testing.T) {
	defer failpoint.DisarmAll()
	const site = "test.pslserver.probe"
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-quiet",
		"-failpoints", site + "=err(1,errno=EIO)"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, &out) }()

	base := waitForAnnounce(t, &out, "on http://")
	if i := strings.Index(base, "/"); i >= 0 {
		base = base[:i]
	}
	if !strings.Contains(out.String(), "failpoints armed: "+site) {
		t.Errorf("no arming announce; output:\n%s", out.String())
	}
	if err := failpoint.New(site).Inject(); err == nil {
		t.Error("armed site did not fire while run() was live")
	}

	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get("http://" + base + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte(`psl_failpoint_triggers_total{name="`+site+`"}`)) {
		t.Error("/metrics missing the armed site's trigger counter")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
	if err := failpoint.New(site).Inject(); err != nil {
		t.Errorf("site still armed after run returned: %v", err)
	}
}

// waitForAnnounce polls the run() stdout buffer until the announce line
// appears and returns the bound address it carries.
func waitForAnnounce(t *testing.T, out *syncBuffer, marker string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := out.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexAny(rest, ", \n"); j >= 0 {
				rest = rest[:j]
			}
			return rest
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q announce; output:\n%s", marker, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFollowerMode boots an origin pslserver and a follower tracking it
// end to end through run(): the follower must bootstrap over /dist/,
// report source=follower with lag_seqs 0 once caught up, answer
// lookups for the origin's head version, and shut down cleanly.
func TestFollowerMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ocfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-versions", "40", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	var oout syncBuffer
	odone := make(chan error, 1)
	go func() { odone <- run(ctx, ocfg, &oout) }()
	obase := waitForAnnounce(t, &oout, " on http://")
	obase = strings.TrimSuffix(obase, fetch.ListPath)

	fcfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-quiet",
		"-follow", "http://" + obase,
		"-follow-from", "1",
		"-follow-poll", "20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	var fout syncBuffer
	fdone := make(chan error, 1)
	go func() { fdone <- run(ctx, fcfg, &fout) }()
	fbase := waitForAnnounce(t, &fout, " on http://")

	if !strings.Contains(fout.String(), "following http://"+obase+" from v0001") {
		t.Errorf("follower did not announce bootstrap from v0001:\n%s", fout.String())
	}

	// The follower catches up to the origin head and says so.
	client := &http.Client{Timeout: 5 * time.Second}
	var health string
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + fbase + serve.HealthPath)
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			health = string(b)
			if strings.Contains(health, `"lag_seqs":0`) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up; last healthz: %s", health)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(health, `"source":"follower"`) || !strings.Contains(health, `"seq":39`) {
		t.Errorf("healthz: %s", health)
	}

	// A lookup answers with the origin's head version.
	resp, err := client.Get("http://" + fbase + serve.LookupPath + "?host=www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	var a serve.Answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if a.Seq != 39 || a.Site != "example.com" {
		t.Errorf("follower lookup answer %+v", a)
	}

	// Follower metrics expose the replica families.
	resp, err = client.Get("http://" + fbase + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{"psl_dist_replica_lag_seqs", "psl_dist_replica_patches_applied_total", "psl_serve_lookups_total"} {
		if !strings.Contains(string(mb), fam) {
			t.Errorf("follower /metrics missing %s", fam)
		}
	}
	if _, err := obs.ValidateExposition(bytes.NewReader(mb)); err != nil {
		t.Errorf("follower exposition invalid: %v", err)
	}

	cancel()
	for name, done := range map[string]chan error{"origin": odone, "follower": fdone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s run returned %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not exit after cancel", name)
		}
	}
}

// TestHealthzDegradesOnSnapshotAge boots the combined handler with a
// tiny -max-snapshot-age and checks /healthz flips to 503 with the
// violated limit in the body while lookups keep being served — health
// is a readiness signal, not a kill switch.
func TestHealthzDegradesOnSnapshotAge(t *testing.T) {
	cfg, err := parseFlags([]string{"-max-snapshot-age", "1ms"})
	if err != nil {
		t.Fatal(err)
	}
	handler, _, _, _, _ := newHandler(testHistory, testHistory.Len()-1, cfg, newObsPlane("origin"))
	ts := httptest.NewServer(handler)
	defer ts.Close()

	time.Sleep(10 * time.Millisecond) // let the snapshot age past the limit
	resp, err := http.Get(ts.URL + serve.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %s, want 503: %s", resp.Status, body)
	}
	if !strings.Contains(string(body), `"status":"degraded"`) || !strings.Contains(string(body), "snapshot age") {
		t.Errorf("healthz body does not explain the degradation: %s", body)
	}

	resp, err = http.Get(ts.URL + serve.LookupPath + "?host=www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("lookup while degraded: %s, want 200", resp.Status)
	}
}

// TestFollowerStateRestore runs a follower with -state-dir, kills it
// after it catches up, and restarts it against the same dir: the second
// run must announce a restored snapshot (no bootstrap) and serve the
// persisted version immediately.
func TestFollowerStateRestore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ocfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-versions", "20", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	var oout syncBuffer
	odone := make(chan error, 1)
	go func() { odone <- run(ctx, ocfg, &oout) }()
	obase := waitForAnnounce(t, &oout, " on http://")
	obase = strings.TrimSuffix(obase, fetch.ListPath)

	stateDir := t.TempDir()
	followerArgs := []string{
		"-addr", "127.0.0.1:0", "-quiet",
		"-follow", "http://" + obase,
		"-follow-poll", "10ms",
		"-state-dir", stateDir,
		"-max-lag", "5",
	}
	fcfg, err := parseFlags(followerArgs)
	if err != nil {
		t.Fatal(err)
	}
	f1ctx, f1cancel := context.WithCancel(ctx)
	var f1out syncBuffer
	f1done := make(chan error, 1)
	go func() { f1done <- run(f1ctx, fcfg, &f1out) }()
	f1base := waitForAnnounce(t, &f1out, " on http://")

	// Wait until the follower is caught up (healthz 200 under -max-lag).
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + f1base + serve.HealthPath)
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(b), `"seq":19`) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up; output:\n%s", f1out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	f1cancel()
	if err := <-f1done; err != nil {
		t.Fatalf("first follower run returned %v", err)
	}

	// Restart against the same state dir: restored, not bootstrapped.
	f2ctx, f2cancel := context.WithCancel(ctx)
	defer f2cancel()
	var f2out syncBuffer
	f2done := make(chan error, 1)
	go func() { f2done <- run(f2ctx, fcfg, &f2out) }()
	f2base := waitForAnnounce(t, &f2out, " on http://")

	if !strings.Contains(f2out.String(), "restored v0019 from "+stateDir) {
		t.Errorf("second follower did not announce a state restore:\n%s", f2out.String())
	}
	resp, err := client.Get("http://" + f2base + serve.LookupPath + "?host=www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	var a serve.Answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if a.Seq != 19 || a.Site != "example.com" {
		t.Errorf("restored follower lookup answer %+v, want seq 19", a)
	}

	f2cancel()
	if err := <-f2done; err != nil {
		t.Errorf("second follower run returned %v", err)
	}
	cancel()
	if err := <-odone; err != nil {
		t.Errorf("origin run returned %v", err)
	}
}

// TestGracefulShutdownNoGoroutineLeak pins the drain contract: run()
// with the debug listener and a live follower poll loop must, on
// cancellation, stop every goroutine it started — the HTTP servers,
// the pprof server and the replica poller.
func TestGracefulShutdownNoGoroutineLeak(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ocfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-versions", "10", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	var oout syncBuffer
	odone := make(chan error, 1)
	go func() { odone <- run(ctx, ocfg, &oout) }()
	obase := waitForAnnounce(t, &oout, " on http://")
	obase = strings.TrimSuffix(obase, fetch.ListPath)

	// Confirm the origin's serve goroutines are all up (the announce
	// line prints before they start), then drop the probe's keep-alive
	// connection so the baseline counts a quiesced process.
	probeTr := &http.Transport{}
	probe := &http.Client{Transport: probeTr, Timeout: 5 * time.Second}
	resp, err := probe.Get("http://" + obase + serve.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	probeTr.CloseIdleConnections()
	time.Sleep(100 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	fcfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet",
		"-follow", "http://" + obase, "-follow-poll", "10ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	var fout syncBuffer
	fdone := make(chan error, 1)
	go func() { fdone <- run(fctx, fcfg, &fout) }()
	fbase := waitForAnnounce(t, &fout, "following ")
	_ = fbase
	waitForAnnounce(t, &fout, "debug endpoints (pprof, metrics) on http://")

	// Let the poll loop take a few laps so its goroutines are real.
	time.Sleep(50 * time.Millisecond)
	if runtime.NumGoroutine() <= baseline {
		t.Fatalf("follower added no goroutines; the leak check would be vacuous")
	}

	fcancel()
	select {
	case err := <-fdone:
		if err != nil {
			t.Errorf("follower run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("follower did not exit after cancel")
	}

	// Everything the follower started must be gone. Allow the runtime a
	// moment to sweep parked goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}

	cancel()
	if err := <-odone; err != nil {
		t.Errorf("origin run returned %v", err)
	}
}

// TestRelayModeChain wires origin → relay → edge entirely through
// run(): the relay re-serves /dist/ from its verified window, the edge
// bootstraps and catches up THROUGH the relay (never touching the
// origin), both tiers report the right source, and both /metrics
// endpoints pass promlint.
func TestRelayModeChain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ocfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-versions", "30", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	var oout syncBuffer
	odone := make(chan error, 1)
	go func() { odone <- run(ctx, ocfg, &oout) }()
	obase := waitForAnnounce(t, &oout, " on http://")
	obase = strings.TrimSuffix(obase, fetch.ListPath)

	rcfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-quiet",
		"-follow", "http://" + obase,
		"-follow-poll", "20ms",
		"-relay", "-retain", "32",
	})
	if err != nil {
		t.Fatal(err)
	}
	var rout syncBuffer
	rdone := make(chan error, 1)
	go func() { rdone <- run(ctx, rcfg, &rout) }()
	rbase := waitForAnnounce(t, &rout, " on http://")
	if !strings.Contains(rout.String(), "relaying http://"+obase) {
		t.Errorf("relay did not announce relay mode:\n%s", rout.String())
	}

	ecfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-quiet",
		"-follow", "http://" + rbase,
		"-follow-poll", "20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	var eout syncBuffer
	edone := make(chan error, 1)
	go func() { edone <- run(ctx, ecfg, &eout) }()
	ebase := waitForAnnounce(t, &eout, " on http://")

	client := &http.Client{Timeout: 5 * time.Second}
	caughtUp := func(base string) string {
		t.Helper()
		var health string
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := client.Get("http://" + base + serve.HealthPath)
			if err == nil {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				health = string(b)
				if strings.Contains(health, `"lag_seqs":0`) && strings.Contains(health, `"seq":29`) {
					return health
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never caught up to v29; last healthz: %s", base, health)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	rhealth := caughtUp(rbase)
	if !strings.Contains(rhealth, `"source":"relay"`) {
		t.Errorf("relay healthz source: %s", rhealth)
	}
	ehealth := caughtUp(ebase)
	if !strings.Contains(ehealth, `"source":"follower"`) {
		t.Errorf("edge healthz source: %s", ehealth)
	}

	// The relay's /dist/manifest is a decodable descriptor one hop
	// deeper than the origin's.
	resp, err := client.Get("http://" + rbase + dist.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m, err := dist.DecodeManifest(mb)
	if err != nil {
		t.Fatalf("relay manifest invalid: %v\n%s", err, mb)
	}
	if m.Seq != 29 || m.Depth != 1 {
		t.Errorf("relay manifest seq %d depth %d, want 29 / 1", m.Seq, m.Depth)
	}

	// An edge lookup answers with the origin's head version, end of
	// chain.
	resp, err = client.Get("http://" + ebase + serve.LookupPath + "?host=www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	var a serve.Answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if a.Seq != 29 || a.Site != "example.com" {
		t.Errorf("edge lookup answer %+v", a)
	}

	// Both tiers' /metrics validate; the relay's carries the relay
	// families and the edge's the replica families.
	scrape := func(base string) string {
		t.Helper()
		resp, err := client.Get("http://" + base + serve.MetricsPath)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if _, err := obs.ValidateExposition(bytes.NewReader(b)); err != nil {
			t.Errorf("%s exposition invalid: %v", base, err)
		}
		return string(b)
	}
	rm := scrape(rbase)
	for _, fam := range []string{
		"psl_dist_relay_requests_total",
		"psl_dist_relay_retained_snapshots",
		"psl_dist_relay_head_seq",
		"psl_dist_replica_lag_seqs",
	} {
		if !strings.Contains(rm, fam) {
			t.Errorf("relay /metrics missing %s", fam)
		}
	}
	em := scrape(ebase)
	if !strings.Contains(em, "psl_dist_replica_patches_applied_total") {
		t.Errorf("edge /metrics missing replica families")
	}

	cancel()
	for name, done := range map[string]chan error{"origin": odone, "relay": rdone, "edge": edone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s run returned %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not exit after cancel", name)
		}
	}
}

// TestSubmitWritePathWiring boots the combined origin handler with
// -submit and drives one authorized change through the HTTP surface:
// the TXT record is planted via /debug/dns, the submission publishes,
// and the read path — query API and raw-list tier — swaps to the new
// version in-process without a restart.
func TestSubmitWritePathWiring(t *testing.T) {
	// A fresh history: publishing appends to it, so the shared
	// testHistory must not be used here.
	h := history.Generate(history.Config{Versions: 30})
	seq := h.Len() - 1
	cfg, err := parseFlags([]string{"-submit"})
	if err != nil {
		t.Fatal(err)
	}
	handler, _, _, origin, _ := newHandler(h, seq, cfg, newObsPlane("origin"))
	ts := httptest.NewServer(handler)
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	req := submit.Request{
		Changes: []submit.Change{{Op: "add", Rule: "hosted.wired-cmd.test", Section: "private"}},
	}
	rec, _ := json.Marshal(map[string]string{
		"name": "_psl.hosted.wired-cmd.test", "type": "TXT", "data": submit.ComputeID(req),
	})
	if status, body := post("/debug/dns", string(rec)); status/100 != 2 {
		t.Fatalf("plant TXT: status %d: %s", status, body)
	}
	reqBody, _ := json.Marshal(req)
	status, body := post(submit.SubmitPath, string(reqBody))
	if status != http.StatusOK || !strings.Contains(body, `"state":"published"`) {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	if origin.Head() != seq+1 {
		t.Fatalf("origin head %d after publish, want %d", origin.Head(), seq+1)
	}

	// The query API swapped to the published version in-process.
	resp, err := client.Get(ts.URL + serve.LookupPath + "?host=www.hosted.wired-cmd.test")
	if err != nil {
		t.Fatal(err)
	}
	var a serve.Answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if a.Seq != seq+1 || a.ETLD != "hosted.wired-cmd.test" || a.Site != "www.hosted.wired-cmd.test" {
		t.Fatalf("lookup after publish: %+v, want seq %d under the new rule", a, seq+1)
	}

	// The raw-list tier serves the new version too.
	resp, err = client.Get(ts.URL + fetch.ListPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "hosted.wired-cmd.test") {
		t.Fatalf("raw list after publish does not carry the new rule")
	}

	// The write path's metric families are exposed alongside the rest.
	resp, err = client.Get(ts.URL + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"psl_submit_received_total 1",
		"psl_submit_published_total 1",
		`psl_submit_verdicts_total{stage="publish",outcome="pass"} 1`,
		`psl_submit_submissions{state="published"} 1`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if _, err := obs.ValidateExposition(bytes.NewReader(mb)); err != nil {
		t.Errorf("exposition invalid with submit families: %v", err)
	}

	// The debug endpoint pslobs scrapes reflects the store.
	resp, err = client.Get(ts.URL + submit.DebugPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum submit.DebugSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.Published != 1 || sum.Total != 1 {
		t.Fatalf("debug summary %+v", sum)
	}
}
