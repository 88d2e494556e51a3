package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// TestSnapshotDefaultsToPackedMatcher pins the serving default:
// snapshots answer through the list's own packed matcher, so a list
// that is both served and queried through the library compiles once.
func TestSnapshotDefaultsToPackedMatcher(t *testing.T) {
	l := fixture(t)
	if snap := NewSnapshot(l, -1); snap.Matcher != l.Matcher() {
		t.Fatalf("snapshot matcher is %T %p, want the list's packed matcher %p", snap.Matcher, snap.Matcher, l.Matcher())
	}
	if m := New(l, -1, Options{}).Current().Matcher; m != l.Matcher() {
		t.Fatalf("service snapshot matcher is %T %p, want the list's packed matcher", m, m)
	}
}

// TestLookupCachedHitZeroAlloc is the serving-layer allocation guard: a
// lookup that hits the sharded cache must not allocate — one atomic
// state load, one map probe, one struct copy — and that must hold with
// the metrics layer on (the default) exactly as it does with it off.
// The run count comfortably exceeds hitSampleEvery, so the sampled
// latency-timing path is exercised too.
func TestLookupCachedHitZeroAlloc(t *testing.T) {
	for name, opts := range map[string]Options{
		"instrumented": {},
		"metricsOff":   {DisableMetrics: true},
		"withRegistry": {},
	} {
		svc := New(fixture(t), -1, opts)
		if name == "withRegistry" {
			// A live registry changes nothing on the hot path, but pin it.
			svc.RegisterMetrics(obs.NewRegistry())
		}
		hosts := []string{"www.example.com", "b.c.kobe.jp", "a.example.co.uk"}
		for _, h := range hosts {
			if _, err := svc.Lookup(h); err != nil {
				t.Fatalf("prime Lookup(%q): %v", h, err)
			}
		}
		for _, h := range hosts {
			h := h
			if n := testing.AllocsPerRun(hitSampleEvery*2, func() {
				if _, err := svc.Lookup(h); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: cached Lookup(%q) allocates %.1f/op, want 0", name, h, n)
			}
		}
	}
}

// TestLookupCachedHitZeroAllocWithMiddleware pins the same guarantee
// with the production middleware stack installed, exactly as pslserver
// wires it: Recover outermost, then Deadline, around the service mux.
// Installing the middleware must not push the in-process cached hit
// path into an allocating mode, and the middleware's own marginal cost
// per HTTP request must stay small and bounded (one wrapper writer,
// one timeout context — not a per-request buffer or closure chain).
func TestLookupCachedHitZeroAllocWithMiddleware(t *testing.T) {
	svc := New(fixture(t), -1, Options{})
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	hm := &resilience.HTTPMetrics{}
	hm.Register(reg)
	wrapped := resilience.Recover(&hm.Panics,
		resilience.Deadline(30*time.Second, &hm.DeadlineExceeded, svc.Handler()))

	const host = "www.example.com"
	serveOnce := func(h http.Handler) {
		req := httptest.NewRequest(http.MethodGet, LookupPath+"?host="+host, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("lookup through middleware: %d %s", rec.Code, rec.Body.String())
		}
	}
	// Prime the cache through the full wrapped path.
	for i := 0; i < 3; i++ {
		serveOnce(wrapped)
	}

	// The in-process cached hit stays allocation-free.
	if n := testing.AllocsPerRun(hitSampleEvery*2, func() {
		if _, err := svc.Lookup(host); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("cached Lookup(%q) with middleware installed allocates %.1f/op, want 0", host, n)
	}

	// The middleware's marginal HTTP-layer cost is bounded: measure the
	// bare mux and the wrapped stack with identical request/recorder
	// churn, and cap the delta.
	bare := testing.AllocsPerRun(200, func() { serveOnce(svc.Handler()) })
	full := testing.AllocsPerRun(200, func() { serveOnce(wrapped) })
	if delta := full - bare; delta > 12 {
		t.Errorf("middleware adds %.1f allocs/request (bare %.1f, wrapped %.1f), want <= 12",
			delta, bare, full)
	}
}
