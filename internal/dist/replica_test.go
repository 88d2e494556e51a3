package dist

import (
	"context"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/psl"
	"repro/internal/resilience"
)

// wireSite is the network-fault site the dist tests serve their
// origins behind.
const wireSite = "dist.test.wire"

var fpWire = failpoint.NewHTTP(wireSite)

// armWire arms the wire site with actions at seed until the test ends;
// failpoint.Disarm(wireSite) heals it sooner.
func armWire(t *testing.T, actions string, seed int64) {
	t.Helper()
	if err := failpoint.Arm(wireSite+"="+actions, seed); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { failpoint.Disarm(wireSite) })
}

// fastOpts keeps test replicas snappy: millisecond backoffs, small
// hops, and a breaker that re-probes quickly after opening.
func fastOpts() ReplicaOptions {
	return ReplicaOptions{
		Client:         &http.Client{Timeout: 5 * time.Second},
		PollInterval:   time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		MaxHop:         16,
		MaxAttempts:    3,
		BreakerOpenFor: 10 * time.Millisecond,
		Seed:           7,
	}
}

func TestReplicaBootstrapAndFollow(t *testing.T) {
	h := testHist(t, 60)
	o := NewOrigin(h)
	o.SetHead(10)
	ts := httptest.NewServer(o)
	defer ts.Close()

	rep := NewReplica(ts.URL, fastOpts())
	ctx := context.Background()

	l, seq, err := rep.Bootstrap(ctx, 1)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if seq != 1 || l.Serialize() != h.ListAt(1).Serialize() {
		t.Fatalf("bootstrap seq %d, list mismatch", seq)
	}
	if got := rep.Lag(); got != 9 {
		t.Fatalf("Lag after bootstrap = %d, want 9", got)
	}

	var swaps []int
	rep.OnSwap = func(_ *psl.List, seq int) { swaps = append(swaps, seq) }
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if rep.CurrentSeq() != 10 || rep.Lag() != 0 {
		t.Fatalf("after poll: cur %d lag %d, want 10/0", rep.CurrentSeq(), rep.Lag())
	}
	if rep.state.list.Serialize() != h.ListAt(10).Serialize() {
		t.Fatalf("replica list differs from ListAt(10)")
	}
	if len(swaps) == 0 || swaps[len(swaps)-1] != 10 {
		t.Fatalf("swaps = %v, want last 10", swaps)
	}

	// Advance the head beyond one MaxHop: the replica chains hops.
	o.SetHead(59)
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll to 59: %v", err)
	}
	if rep.CurrentSeq() != 59 || rep.Lag() != 0 {
		t.Fatalf("after poll: cur %d lag %d, want 59/0", rep.CurrentSeq(), rep.Lag())
	}
	if rep.Applied() < 4 {
		t.Fatalf("Applied = %d, want >= 4 hops for 49 seqs at MaxHop 16", rep.Applied())
	}
	if rep.state.list.Serialize() != h.ListAt(59).Serialize() {
		t.Fatalf("replica list differs from ListAt(59)")
	}
}

func TestReplicaRetriesTransientFailures(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(5)
	ts := httptest.NewServer(fpWire.Wrap(o))
	defer ts.Close()

	rep := NewReplica(ts.URL, fastOpts())
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	o.SetHead(20)
	armWire(t, "status(1,limit=2)", 3) // manifest fetch fails, retried by the next poll
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for rep.CurrentSeq() != 20 && time.Now().Before(deadline) {
		lastErr = rep.Poll(ctx)
	}
	if rep.CurrentSeq() != 20 {
		t.Fatalf("never converged: cur %d, last err %v", rep.CurrentSeq(), lastErr)
	}
	if rep.Retries()+rep.pollErrors.Load() == 0 {
		t.Fatalf("no retries or poll errors recorded despite injection")
	}
}

func TestReplicaStallHitsClientTimeout(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(3)
	ts := httptest.NewServer(fpWire.Wrap(o))
	defer ts.Close()

	opts := fastOpts()
	opts.Client = &http.Client{Timeout: 100 * time.Millisecond}
	rep := NewReplica(ts.URL, opts)
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	o.SetHead(10)
	armWire(t, "stall(1,ms=2000,limit=1)", 5)
	start := time.Now()
	deadline := start.Add(15 * time.Second)
	for rep.CurrentSeq() != 10 && time.Now().Before(deadline) {
		_ = rep.Poll(ctx)
	}
	if rep.CurrentSeq() != 10 {
		t.Fatalf("never converged past a stalled request")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("convergence took %v; client timeout did not cut the stall", elapsed)
	}
}

// TestReplicaSkipsUnretainedHopWithoutBudget: an upstream that keeps
// no patch for the bounded hop (a relay serves only the seqs it
// installed) answers it 404 however often it is asked. The replica
// must take the next rung — here the compaction probe — without
// spending a retry token, so a budget drained by an earlier outage
// cannot pin it behind the head.
func TestReplicaSkipsUnretainedHopWithoutBudget(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(0)
	mux := http.NewServeMux()
	mux.Handle(Prefix, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, patchPrefix) && !strings.HasSuffix(r.URL.Path, "/30") {
			http.NotFound(w, r)
			return
		}
		o.ServeHTTP(w, r)
	}))
	mux.Handle(ManifestPath, o)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	opts := fastOpts()
	opts.RetryBudget = 2
	opts.RetryDeposit = 0.01
	rep := NewReplica(ts.URL, opts)
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	for rep.RetryBudget().Withdraw() {
	}
	o.SetHead(30)
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll with a drained budget past an unretained hop: %v", err)
	}
	if rep.CurrentSeq() != 30 || rep.CompactHits() == 0 {
		t.Fatalf("cur %d, compaction hits %d; want 30 through the probe", rep.CurrentSeq(), rep.CompactHits())
	}
	if rep.Retries() != 0 {
		t.Fatalf("%d retries spent on a 404 that no retry can change", rep.Retries())
	}
}

func TestReplicaFallsBackToFullSync(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(30)
	ts := httptest.NewServer(o)
	defer ts.Close()

	rep := NewReplica(ts.URL, fastOpts())
	ctx := context.Background()

	// Poison the replica's chain: claim to be at seq 10 while actually
	// holding version 5's rules. Every patch 10→x now fails fingerprint
	// verification, so the replica must fall back to a full sync.
	rep.SetState(h.ListAt(5), 10)
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if rep.CurrentSeq() != 30 {
		t.Fatalf("cur = %d, want 30", rep.CurrentSeq())
	}
	if rep.state.list.Serialize() != h.ListAt(30).Serialize() {
		t.Fatalf("replica list differs from ListAt(30) after fallback")
	}
	if rep.VerifyFailures() == 0 {
		t.Fatalf("broken chain produced no verify failures")
	}
	if rep.Fallbacks() == 0 {
		t.Fatalf("broken chain did not trigger a full-blob fallback")
	}
}

func TestReplicaNeverSwapsCorruptBlobs(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(5)
	ts := httptest.NewServer(fpWire.Wrap(o))
	defer ts.Close()

	rep := NewReplica(ts.URL, fastOpts())
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	swapped := 0
	rep.OnSwap = func(_ *psl.List, seq int) {
		swapped++
		if got := rep.state.list.Fingerprint(); got != o.Chain().Fingerprint(seq) {
			t.Errorf("swap %d installed fingerprint %s, chain says %s", seq, got, o.Chain().Fingerprint(seq))
		}
	}

	// With every response corrupted, nothing may be swapped in. Most
	// damaged manifests are rejected before any blob is fetched; poll
	// on until one whose damage still decodes (a flipped fingerprint or
	// version byte) sends the replica after the corrupt blobs.
	o.SetHead(20)
	armWire(t, "bitflip(1)", 11)
	for i := 0; i < 3 || (rep.VerifyFailures() == 0 && i < 100); i++ {
		if err := rep.Poll(ctx); err == nil {
			t.Fatalf("poll succeeded while all blobs corrupt")
		}
	}
	if swapped != 0 {
		t.Fatalf("replica swapped %d corrupt blobs in", swapped)
	}
	if rep.VerifyFailures() == 0 {
		t.Fatalf("corrupt blobs produced no verify failures")
	}

	// Heal the wire: convergence resumes.
	failpoint.Disarm(wireSite)
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll after healing: %v", err)
	}
	if rep.CurrentSeq() != 20 || swapped == 0 {
		t.Fatalf("cur %d swapped %d after healing, want 20 and >0", rep.CurrentSeq(), swapped)
	}
}

func TestReplicaRunLoopStopsOnCancel(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(8)
	ts := httptest.NewServer(o)
	defer ts.Close()

	rep := NewReplica(ts.URL, fastOpts())
	ctx, cancel := context.WithCancel(context.Background())
	if _, _, err := rep.Bootstrap(ctx, -1); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if rep.CurrentSeq() != 8 {
		t.Fatalf("Bootstrap(-1) landed on %d, want head 8", rep.CurrentSeq())
	}
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	o.SetHead(25)
	deadline := time.Now().Add(10 * time.Second)
	for rep.Lag() != 0 || rep.CurrentSeq() != 25 {
		if time.Now().After(deadline) {
			t.Fatalf("run loop never converged: cur %d lag %d", rep.CurrentSeq(), rep.Lag())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Run did not stop after cancel")
	}
}

// TestReplicaBackoffResetsAfterSuccessfulPoll pins the reset-on-success
// invariant at the replica level: a run of failed transfers escalates
// the shared backoff, and the first clean cycle returns it to zero so
// the next incident starts from the base delay again.
func TestReplicaBackoffResetsAfterSuccessfulPoll(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(3)
	// Corrupt only the blob endpoints: a corrupt manifest fails the
	// cycle outright (DecodeManifest rejects it), while this test is
	// about the retry ladder under failing transfers.
	mux := http.NewServeMux()
	mux.Handle(ManifestPath, o)
	mux.Handle(Prefix, fpWire.Wrap(o))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep := NewReplica(ts.URL, fastOpts())
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	o.SetHead(10)
	armWire(t, "bitflip(1)", 9)
	if err := rep.Poll(ctx); err == nil {
		t.Fatal("poll succeeded on an all-corrupt wire")
	}
	if rep.backoff.Attempt() == 0 {
		t.Fatal("failed poll left the backoff at attempt 0; retries took no delay")
	}
	failpoint.Disarm(wireSite)
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll after healing: %v", err)
	}
	if got := rep.backoff.Attempt(); got != 0 {
		t.Fatalf("backoff attempt = %d after a successful poll, want 0", got)
	}
}

// TestReplicaBreakerOpensOnTransportFailures: consecutive transport
// failures trip the origin breaker, polls fail fast with ErrOpen while
// it is open, and the first successful probe after BreakerOpenFor
// closes it again.
func TestReplicaBreakerOpensOnTransportFailures(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(3)
	ts := httptest.NewServer(fpWire.Wrap(o))
	defer ts.Close()

	opts := fastOpts()
	opts.BreakerThreshold = 3
	opts.BreakerOpenFor = 25 * time.Millisecond
	rep := NewReplica(ts.URL, opts)
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	armWire(t, "status(1)", 5)
	for i := 0; i < 3; i++ {
		if err := rep.Poll(ctx); err == nil {
			t.Fatalf("poll %d succeeded through a 100%% 5xx wire", i)
		}
	}
	if got := rep.Breaker().State(); got != resilience.BreakerOpen {
		t.Fatalf("breaker %v after %d consecutive transport failures, want open", got, 3)
	}
	err := rep.Poll(ctx)
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("poll through an open breaker = %v, want ErrOpen fast failure", err)
	}
	if rep.Breaker().FastFails() == 0 {
		t.Fatal("open breaker recorded no fast failures")
	}

	// Heal the wire and outwait the open window: the probe closes it.
	failpoint.Disarm(wireSite)
	o.SetHead(8)
	time.Sleep(30 * time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for rep.CurrentSeq() != 8 && time.Now().Before(deadline) {
		_ = rep.Poll(ctx)
	}
	if rep.CurrentSeq() != 8 {
		t.Fatalf("never converged after the breaker window: cur %d", rep.CurrentSeq())
	}
	if got := rep.Breaker().State(); got != resilience.BreakerClosed {
		t.Fatalf("breaker %v after recovery, want closed", got)
	}
}

// TestReplicaBudgetExhaustionEndsCycle: with a tiny retry budget, a
// poisoned wire exhausts it and the cycle ends with a budget error
// instead of retrying without bound. Only the transfers the budget
// governs are corrupted: the manifest carries a wall-clock publish
// stamp, so corrupting it too would make where the seeded site
// flips bytes (and whether a poll ever reaches a transfer) depend on
// the clock.
func TestReplicaBudgetExhaustionEndsCycle(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(3)
	mux := http.NewServeMux()
	mux.Handle(Prefix, fpWire.Wrap(o))
	mux.Handle(ManifestPath, o)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	opts := fastOpts()
	opts.RetryBudget = 2
	opts.RetryDeposit = 0.01
	rep := NewReplica(ts.URL, opts)
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	o.SetHead(20)
	armWire(t, "bitflip(1)", 13)
	var err error
	for i := 0; i < 5 && rep.RetryBudget().Denied() == 0; i++ {
		err = rep.Poll(ctx)
	}
	if rep.RetryBudget().Denied() == 0 {
		t.Fatalf("budget never denied a retry on an all-corrupt wire (last err %v)", err)
	}
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("poll error = %v, want retry-budget exhaustion", err)
	}
	if swapped := rep.CurrentSeq(); swapped != 0 {
		t.Fatalf("replica advanced to %d through corrupt blobs", swapped)
	}
}

// TestReplicaPersistsAndRestoresState: with a StateDir, every verified
// install lands on disk and a fresh replica resumes from the persisted
// seq — patching forward from there, never re-downloading a full blob.
func TestReplicaPersistsAndRestoresState(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(12)
	ts := httptest.NewServer(o)
	defer ts.Close()

	dir := t.TempDir()
	opts := fastOpts()
	opts.StateDir = dir
	rep := NewReplica(ts.URL, opts)
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if rep.CurrentSeq() != 12 {
		t.Fatalf("cur = %d, want 12", rep.CurrentSeq())
	}
	if rep.Persisted() == 0 {
		t.Fatal("no snapshots persisted despite StateDir")
	}

	// "Crash": build a brand-new replica over the same dir.
	rep2 := NewReplica(ts.URL, opts)
	l, seq, err := rep2.RestoreState()
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if seq != 12 || rep2.CurrentSeq() != 12 {
		t.Fatalf("restored seq %d (cur %d), want 12", seq, rep2.CurrentSeq())
	}
	if got, want := l.Fingerprint(), o.Chain().Fingerprint(12); got != want {
		t.Fatalf("restored fingerprint %s, chain says %s", got, want)
	}

	// Advance the origin: the restarted replica must patch forward from
	// its persisted seq, with zero full-blob transfers.
	o.SetHead(25)
	if err := rep2.Poll(ctx); err != nil {
		t.Fatalf("Poll after restore: %v", err)
	}
	if rep2.CurrentSeq() != 25 || rep2.FullSyncs() != 0 {
		t.Fatalf("after restore: cur %d fullSyncs %d, want 25 and 0", rep2.CurrentSeq(), rep2.FullSyncs())
	}
	if rep2.state.list.Serialize() != h.ListAt(25).Serialize() {
		t.Fatalf("restored replica list differs from ListAt(25)")
	}
}

func TestReplicaRestoreStateErrors(t *testing.T) {
	opts := fastOpts()
	rep := NewReplica("http://unused.invalid", opts)
	if _, _, err := rep.RestoreState(); err == nil {
		t.Fatal("RestoreState without a StateDir succeeded")
	}

	opts.StateDir = t.TempDir()
	rep = NewReplica("http://unused.invalid", opts)
	if _, _, err := rep.RestoreState(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("RestoreState on an empty dir = %v, want fs.ErrNotExist", err)
	}
}

func TestReplicaMetricsExposition(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(6)
	ts := httptest.NewServer(o)
	defer ts.Close()

	rep := NewReplica(ts.URL, fastOpts())
	reg := obs.NewRegistry()
	rep.RegisterMetrics(reg)
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, 2); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll: %v", err)
	}

	exp := reg.Render()
	for _, fam := range []string{
		"psl_dist_replica_lag_seqs",
		"psl_dist_replica_polls_total",
		"psl_dist_replica_poll_errors_total",
		"psl_dist_replica_patches_applied_total",
		"psl_dist_replica_bytes_total",
		"psl_dist_replica_verify_failures_total",
		"psl_dist_replica_fallback_syncs_total",
		"psl_dist_replica_full_syncs_total",
		"psl_dist_replica_retries_total",
		"psl_dist_replica_state_persisted_total",
		"psl_dist_replica_state_persist_errors_total",
		"psl_dist_replica_apply_duration_seconds",
		`psl_resilience_breaker_state{breaker="dist_origin"}`,
		`psl_resilience_retry_budget_tokens{budget="dist_replica"}`,
	} {
		if !strings.Contains(exp, fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
	if _, err := obs.ValidateExposition(strings.NewReader(exp)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}
