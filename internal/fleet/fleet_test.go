package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
)

// testConfig is a small-but-real fleet: two tiers, a couple dozen
// edges, ~1.2s of churn phase. Small enough for tier-1, large enough
// that every moving part (hops, compaction, churn, skew) engages.
func testConfig() Config {
	return Config{
		Seed:         42,
		Edges:        24,
		Relays:       2,
		Retain:       64,
		Versions:     80,
		HeadStep:     3,
		Duration:     1200 * time.Millisecond,
		AdvanceEvery: 120 * time.Millisecond,
		BasePoll:     40 * time.Millisecond,
		PollSkew:     0.6,
		MaxHop:       8,
		SampleEvery:  150 * time.Millisecond,
	}
}

func TestFleetTwoTierConvergence(t *testing.T) {
	rep, err := Run(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Converged {
		t.Fatalf("fleet did not converge: %+v", rep.Convergence)
	}
	if rep.UnverifiedSwaps != 0 {
		t.Fatalf("UnverifiedSwaps = %d, want 0", rep.UnverifiedSwaps)
	}
	if rep.Tiers != 2 {
		t.Fatalf("Tiers = %d, want 2", rep.Tiers)
	}
	if rep.FinalHead != 30 {
		t.Fatalf("FinalHead = %d, want 30 (10 advances × step 3)", rep.FinalHead)
	}
	if rep.Convergence.Converged != rep.Convergence.Live || rep.Convergence.Live != 24 {
		t.Fatalf("convergence %d/%d, want 24/24", rep.Convergence.Converged, rep.Convergence.Live)
	}
	if len(rep.LagSeries) == 0 {
		t.Fatal("no lag samples recorded")
	}
	if rep.Edges.Applied == 0 {
		t.Fatal("no patches applied — the fleet full-synced its way through")
	}
	if rep.Egress.OriginBytes == 0 || rep.Egress.RelayBytes == 0 {
		t.Fatalf("egress not metered: origin %d relay %d", rep.Egress.OriginBytes, rep.Egress.RelayBytes)
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatalf("report not JSON-encodable: %v", err)
	}
}

// TestFleetEgressComparison is the fan-out's reason to exist: the same
// fleet through a relay tier must pull strictly fewer bytes from the
// origin than the naive everyone-polls-the-origin topology.
func TestFleetEgressComparison(t *testing.T) {
	tiered, naive, err := RunComparison(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("RunComparison: %v", err)
	}
	if !tiered.Converged || !naive.Converged {
		t.Fatalf("convergence: tiered %v naive %v", tiered.Converged, naive.Converged)
	}
	if naive.Tiers != 1 || naive.Egress.RelayBytes != 0 {
		t.Fatalf("naive run not single-tier: tiers %d relay bytes %d", naive.Tiers, naive.Egress.RelayBytes)
	}
	if tiered.Egress.OriginBytes >= naive.Egress.OriginBytes {
		t.Fatalf("origin egress %d (tiered) >= %d (naive) — the relay tier saved nothing",
			tiered.Egress.OriginBytes, naive.Egress.OriginBytes)
	}
	t.Logf("origin egress: tiered %d B, naive %d B (%.1f×)",
		tiered.Egress.OriginBytes, naive.Egress.OriginBytes,
		float64(naive.Egress.OriginBytes)/float64(tiered.Egress.OriginBytes))
}

// TestFleetDeterministicForSeed is the deflake guard: two runs with the
// same config must produce byte-identical deterministic views —
// topology, schedules, final head, and the zero-unverified invariant.
// Wall-clock-dependent counters are excluded from the view by design;
// this asserts the seeded parts never drift.
func TestFleetDeterministicForSeed(t *testing.T) {
	cfg := testConfig()
	cfg.ChurnFraction = 0.25
	cfg.ChaosRate = 0.15
	cfg.ChaosTiers = []string{TierOrigin, TierRelay}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if av, bv := a.DeterministicJSON(), b.DeterministicJSON(); av != bv {
		t.Fatalf("deterministic views diverged for one seed:\n--- A ---\n%s\n--- B ---\n%s", av, bv)
	}
	if a.UnverifiedSwaps != 0 {
		t.Fatalf("UnverifiedSwaps = %d, want 0", a.UnverifiedSwaps)
	}
}

// TestFleetChaosAtBothTiers: with every HTTP action armed at both
// tiers, the fleet still converges after the wire heals and never
// swaps an unverified snapshot.
func TestFleetChaosAtBothTiers(t *testing.T) {
	cfg := testConfig()
	cfg.ChaosRate = 0.25
	cfg.ChaosTiers = []string{TierOrigin, TierRelay}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.UnverifiedSwaps != 0 {
		t.Fatalf("UnverifiedSwaps = %d under chaos, want 0", rep.UnverifiedSwaps)
	}
	if !rep.Converged {
		t.Fatalf("fleet did not converge after healing: %+v", rep.Convergence)
	}
	originFaults, relayFaults := rep.FailpointTriggers[SiteOrigin], rep.FailpointTriggers[SiteRelay]
	if originFaults == 0 || relayFaults == 0 {
		t.Fatalf("chaos injected nothing: origin %d relay %d", originFaults, relayFaults)
	}
}

// TestFleetRelaysBootstrapBeforeChaos: chaos strikes the running
// fleet, not its setup. Even at rate 1 on the origin tier the relays
// bootstrap, the run reports, and it converges once the wire heals.
func TestFleetRelaysBootstrapBeforeChaos(t *testing.T) {
	cfg := testConfig()
	cfg.Edges = 6
	cfg.ChaosRate = 1
	cfg.ChaosTiers = []string{TierOrigin}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.UnverifiedSwaps != 0 {
		t.Fatalf("UnverifiedSwaps = %d under chaos, want 0", rep.UnverifiedSwaps)
	}
	if !rep.Converged {
		t.Fatalf("fleet did not converge after healing: %+v", rep.Convergence)
	}
	if rep.FailpointTriggers[SiteOrigin] == 0 {
		t.Fatalf("chaos at rate 1 injected nothing: %v", rep.FailpointTriggers)
	}
}

// TestFleetChurn: killed edges drop out, replacements join, and the
// survivors still converge.
func TestFleetChurn(t *testing.T) {
	cfg := testConfig()
	cfg.ChurnFraction = 0.25
	cfg.RejoinDelay = 150 * time.Millisecond
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantKilled, wantRejoined := 0, 0
	for _, ev := range rep.ChurnPlan {
		wantKilled++
		if ev.NewEdge >= 0 {
			wantRejoined++
		}
	}
	if wantKilled != 6 {
		t.Fatalf("churn plan has %d kills, want 6 (25%% of 24)", wantKilled)
	}
	if rep.Killed != wantKilled || rep.Rejoined != wantRejoined {
		t.Fatalf("killed %d rejoined %d, plan says %d/%d", rep.Killed, rep.Rejoined, wantKilled, wantRejoined)
	}
	if !rep.Converged {
		t.Fatalf("fleet did not converge through churn: %+v", rep.Convergence)
	}
	if rep.Convergence.Live != 24-wantKilled+wantRejoined {
		t.Fatalf("live at end = %d, want %d", rep.Convergence.Live, 24-wantKilled+wantRejoined)
	}
}

// TestFleetConvergesUnderStorageFaults: every edge persists through its
// own in-memory disk while an err-mode failpoint spec strikes the fsync
// and rename steps of the atomic-write discipline. The replica's
// contract — persistence failures are counted, never block a swap —
// must scale to a fleet: full convergence, zero unverified swaps, and a
// report showing both that snapshots landed and that faults genuinely
// fired.
func TestFleetConvergesUnderStorageFaults(t *testing.T) {
	defer failpoint.DisarmAll()
	cfg := testConfig()
	cfg.ChurnFraction = 0.25
	cfg.EdgeState = true
	cfg.Failpoints = "dist.state.sync=err(0.4,errno=EIO);dist.state.rename=err(0.25,errno=ENOSPC)"
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Converged {
		t.Fatalf("fleet did not converge under storage faults: %+v", rep.Convergence)
	}
	if rep.UnverifiedSwaps != 0 {
		t.Fatalf("UnverifiedSwaps = %d under storage faults, want 0", rep.UnverifiedSwaps)
	}
	if rep.Edges.Persisted == 0 {
		t.Fatal("EdgeState on but no snapshot ever persisted")
	}
	if rep.Edges.PersistErrors == 0 {
		t.Fatal("storage faults armed but no persistence failure recorded")
	}
	for _, site := range []string{"dist.state.sync", "dist.state.rename"} {
		if rep.FailpointTriggers[site] == 0 {
			t.Errorf("armed site %s never fired: %v", site, rep.FailpointTriggers)
		}
	}
}

// TestFleetRejectsCrashFailpoints: crash-mode specs would panic edge
// goroutines and kill the process — Run must refuse them at setup.
func TestFleetRejectsCrashFailpoints(t *testing.T) {
	cfg := testConfig()
	cfg.Failpoints = "dist.state.sync=crash(1)"
	if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "crash") {
		t.Fatalf("Run with crash spec = %v, want crash-rejection error", err)
	}
}

// TestFleetMetricsExposition: the per-tier families render and pass the
// exposition validator, and each tier's exposed fault count is the
// whole tier's — with two relays, the relay-tier trigger counter moves
// by exactly what the report counts for the run.
func TestFleetMetricsExposition(t *testing.T) {
	cfg := testConfig()
	cfg.ChaosRate = 0.25
	cfg.ChaosTiers = []string{TierOrigin, TierRelay}
	cfg.Metrics = obs.NewRegistry()
	base := map[string]uint64{SiteOrigin: failpoint.Triggers(SiteOrigin), SiteRelay: failpoint.Triggers(SiteRelay)}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Converged {
		t.Fatal("fleet did not converge")
	}
	text := cfg.Metrics.Render()
	for _, want := range []string{
		`psl_fleet_tier_egress_bytes{tier="origin"}`,
		`psl_fleet_tier_egress_bytes{tier="relay"}`,
		"psl_fleet_unverified_swaps_total 0",
		"psl_dist_origin_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	families, err := obs.ValidateExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, f := range families {
		if strings.Contains(f, "chaos") {
			t.Errorf("exposition has %s; psl_failpoint_triggers_total is the only fault family", f)
		}
	}
	for _, site := range []string{SiteOrigin, SiteRelay} {
		want := rep.FailpointTriggers[site]
		if want == 0 {
			t.Errorf("%s never fired at chaos rate 0.25", site)
		}
		line := fmt.Sprintf("psl_failpoint_triggers_total{name=%q} %d", site, base[site]+want)
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition disagrees with the report's %d %s faults; want line %q", want, site, line)
		}
	}
}

// TestFleetThousandEdges is the acceptance-scale run: ≥1,000 in-process
// edges across 2 tiers. Heavy (tens of seconds under -race), so it only
// runs when PSLFLEET_HEAVY=1 — CI's fleet-smoke job and `make fleet`
// exercise the same scale through cmd/pslfleet.
func TestFleetThousandEdges(t *testing.T) {
	if os.Getenv("PSLFLEET_HEAVY") == "" {
		t.Skip("set PSLFLEET_HEAVY=1 to run the 1000-edge acceptance fleet")
	}
	// Time constants are sized for a race-instrumented single-core host:
	// 1,000 edges bootstrapping and polling in one process starve the
	// scheduler, so wall-clock windows (poll cadence, head cadence, the
	// convergence deadline) are stretched until the starvation fits
	// inside them. On a multi-core box the fleet simply converges early.
	cfg := Config{
		Seed:            7,
		Edges:           1000,
		Relays:          8,
		Retain:          128,
		Versions:        120,
		HeadStep:        2,
		Duration:        15 * time.Second,
		AdvanceEvery:    5 * time.Second,
		BasePoll:        2 * time.Second,
		PollSkew:        0.6,
		ChurnFraction:   0.01,
		ChaosRate:       0.02,
		ChaosTiers:      []string{TierOrigin, TierRelay},
		ConvergeTimeout: 5 * time.Minute,
	}
	tiered, naive, err := RunComparison(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunComparison: %v", err)
	}
	if tiered.UnverifiedSwaps != 0 || naive.UnverifiedSwaps != 0 {
		t.Fatalf("unverified swaps: tiered %d naive %d", tiered.UnverifiedSwaps, naive.UnverifiedSwaps)
	}
	if !tiered.Converged || !naive.Converged {
		t.Fatalf("convergence: tiered %v naive %v", tiered.Converged, naive.Converged)
	}
	if tiered.Egress.OriginBytes >= naive.Egress.OriginBytes {
		t.Fatalf("origin egress %d (tiered) >= %d (naive)", tiered.Egress.OriginBytes, naive.Egress.OriginBytes)
	}
	t.Logf("1000-edge: convergence p50 %.3fs p99 %.3fs; origin egress %d vs %d B",
		tiered.Convergence.P50, tiered.Convergence.P99,
		tiered.Egress.OriginBytes, naive.Egress.OriginBytes)
}

// --- HandlerTransport unit tests ---

func TestHandlerTransportBasics(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Node", "n1")
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("short and stout"))
	})
	tr := NewHandlerTransport(h)
	client := &http.Client{Transport: tr}
	resp, err := client.Get("http://node1.fleet/any")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot || string(body) != "short and stout" {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Node") != "n1" {
		t.Fatal("header lost in transit")
	}
	if tr.Requests() != 1 || tr.Bytes() != uint64(len(body)) {
		t.Fatalf("metering: %d reqs %d bytes", tr.Requests(), tr.Bytes())
	}
}

func TestHandlerTransportReset(t *testing.T) {
	tr := NewHandlerTransport(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	client := &http.Client{Transport: tr}
	if _, err := client.Get("http://x.fleet/"); err == nil {
		t.Fatal("reset-before-write did not surface as a transport error")
	}
}

func TestHandlerTransportTruncation(t *testing.T) {
	tr := NewHandlerTransport(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("first half"))
		panic(http.ErrAbortHandler)
	}))
	client := &http.Client{Transport: tr}
	resp, err := client.Get("http://x.fleet/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("read error = %v, want io.ErrUnexpectedEOF", err)
	}
	if string(body) != "first half" {
		t.Fatalf("partial body %q", body)
	}
}

func TestHandlerTransportContextCancelled(t *testing.T) {
	tr := NewHandlerTransport(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler ran despite cancelled context")
	}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://x.fleet/", nil)
	if _, err := tr.RoundTrip(req); err == nil {
		t.Fatal("cancelled request went through")
	}
}

func TestHostRouter(t *testing.T) {
	hit := ""
	mk := func(name string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hit = name })
	}
	router := hostRouter{"relay0.fleet": mk("r0"), "relay1.fleet": mk("r1")}
	client := &http.Client{Transport: NewHandlerTransport(router)}
	if _, err := client.Get("http://relay1.fleet/dist/manifest"); err != nil {
		t.Fatalf("GET: %v", err)
	}
	if hit != "r1" {
		t.Fatalf("routed to %q, want r1", hit)
	}
	resp, err := client.Get("http://nowhere.fleet/")
	if err != nil {
		t.Fatalf("GET unknown host: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unknown host status %d, want 502", resp.StatusCode)
	}
}
