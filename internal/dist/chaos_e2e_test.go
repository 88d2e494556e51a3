package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/history"
	"repro/internal/psl"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// TestChaosE2EReplication is the resilience layer's acceptance harness:
// an origin serves behind the wire failpoint site while a replica
// follows and hot-swaps into a serve.Service under concurrent verified
// lookups. The run cycles through every HTTP action; for each, the wire
// is poisoned at 50% while the head advances, then healed — and the
// replica must recover to lag 0 within the phase budget. A failure logs
// each phase's one-line recipe. Throughout, every swapped
// list must carry the exact fingerprint the origin's chain records
// (zero unverified swaps). Afterwards the replica is killed and a fresh
// one restores the persisted state dir, resuming from the last verified
// seq by patching forward — zero full-blob transfers. Finally, the
// whole stack must leave no goroutines behind.
func TestChaosE2EReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	baseline := runtime.NumGoroutine()

	h := history.Generate(history.Config{Versions: 260})
	origin := NewOrigin(h)
	origin.SetHead(0)
	originTS := httptest.NewServer(fpWire.Wrap(origin))

	// One phase per HTTP action, each armed alone at 50% from one seed.
	const seed = 42
	phases := []string{"delay(0.5,ms=20)", "reset(0.5)", "truncate(0.5)", "bitflip(0.5)", "status(0.5)", "stall(0.5,ms=150)"}
	recipes := make([]string, len(phases))
	for i, p := range phases {
		recipes[i] = failpoint.Recipe(seed, wireSite+"="+p)
	}
	t.Cleanup(func() {
		failpoint.Disarm(wireSite)
		if t.Failed() {
			t.Log("re-run, one phase per line:\n" + strings.Join(recipes, "\n"))
		}
	})

	stateDir := t.TempDir()
	repClient := &http.Client{Timeout: 500 * time.Millisecond, Transport: &http.Transport{}}
	opts := ReplicaOptions{
		Client:         repClient,
		PollInterval:   2 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		MaxHop:         16,
		MaxAttempts:    3,
		BreakerOpenFor: 10 * time.Millisecond,
		StateDir:       stateDir,
		Seed:           11,
	}
	rep := NewReplica(originTS.URL, opts)
	ctx, cancel := context.WithCancel(context.Background())

	// Bootstrap over the still-disarmed wire, then serve from it.
	l, seq, err := rep.Bootstrap(ctx, 0)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	svc := serve.New(l, seq, serve.Options{})
	var swapMu sync.Mutex
	var badSwaps []string
	verifiedSwap := func(r *Replica) func(*psl.List, int) {
		return func(l *psl.List, seq int) {
			if got, want := l.Fingerprint(), origin.Chain().Fingerprint(seq); got != want {
				swapMu.Lock()
				badSwaps = append(badSwaps, fmt.Sprintf("seq %d: %s != chain %s", seq, got, want))
				swapMu.Unlock()
			}
			svc.Swap(l, seq)
		}
	}
	rep.OnSwap = verifiedSwap(rep)
	runDone := make(chan struct{})
	go func() { defer close(runDone); rep.Run(ctx) }()

	// One phase per action: poison the wire at 50%, advance the head,
	// and keep the action armed until it has actually fired
	// against live replication traffic (a fixed window could miss — one
	// hop can cost ~100ms between origin render and fsync-on-install, so
	// few requests flow per wall-clock second). Then heal and demand
	// bounded recovery to lag 0.
	const perPhase = 33
	var phaseErrMu sync.Mutex
	var phaseErrs []error
	phaseFail := func(format string, a ...any) error {
		err := fmt.Errorf(format, a...)
		phaseErrMu.Lock()
		phaseErrs = append(phaseErrs, err)
		phaseErrMu.Unlock()
		return err
	}
	finalSeq := perPhase * len(phases)
	fired := make([]uint64, len(phases))
	phase := func(i int) error {
		fault := phases[i]
		before := fpWire.Triggers()
		if err := failpoint.Arm(wireSite+"="+fault, seed); err != nil {
			return phaseFail("arm %s: %v", fault, err)
		}
		target := perPhase * (i + 1)
		origin.SetHead(target)
		armed := time.Now().Add(10 * time.Second)
		for fpWire.Triggers() == before && time.Now().Before(armed) {
			time.Sleep(5 * time.Millisecond)
		}
		failpoint.Disarm(wireSite)
		if fired[i] = fpWire.Triggers() - before; fired[i] == 0 {
			return phaseFail("fault %s never fired while armed", fault)
		}
		deadline := time.Now().Add(20 * time.Second)
		for rep.CurrentSeq() < int64(target) || rep.Lag() != 0 {
			if time.Now().After(deadline) {
				return phaseFail("fault %s: replica stuck at %d (head %d, lag %d)",
					fault, rep.CurrentSeq(), target, rep.Lag())
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}

	orc := newOracle(h)
	res := loadgen.Run(loadgen.Config{
		Clients:           2,
		RequestsPerClient: 200,
		Seed:              3,
		Hosts:             loadgen.Hostnames(h.ListAt(finalSeq), 1200, 17),
		Lookup:            svc.Lookup,
		Verify:            orc.verify,
		Swap:              phase,
		Swaps:             len(phases),
		SwapInterval:      time.Millisecond,
	})
	if res.Swaps != int64(len(phases)) {
		phaseErrMu.Lock()
		defer phaseErrMu.Unlock()
		t.Fatalf("only %d/%d fault phases completed: %v", res.Swaps, len(phases), phaseErrs)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d wrong answers out of %d lookups; first: %v", res.Mismatches, res.Lookups, res.FirstMismatch)
	}
	swapMu.Lock()
	if len(badSwaps) != 0 {
		t.Fatalf("replica swapped in %d unverified lists: %v", len(badSwaps), badSwaps[0])
	}
	swapMu.Unlock()
	if rep.CurrentSeq() != int64(finalSeq) || rep.Lag() != 0 {
		t.Fatalf("replica at %d lag %d after all phases, want %d/0", rep.CurrentSeq(), rep.Lag(), finalSeq)
	}
	for i, f := range phases {
		if fired[i] == 0 {
			t.Errorf("fault %s never injected", f)
		}
	}
	if rep.Persisted() == 0 {
		t.Fatal("no snapshots persisted despite StateDir")
	}

	// Kill the replica mid-life...
	cancel()
	<-runDone
	killedAt := rep.CurrentSeq()

	// ...and restart from the persisted state: the new replica must
	// resume at the killed replica's last verified seq and patch
	// forward to a further-advanced head with zero full-blob transfers.
	rep2Client := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{}}
	opts2 := opts
	opts2.Client = rep2Client
	rep2 := NewReplica(originTS.URL, opts2)
	restoredList, restoredSeq, err := rep2.RestoreState()
	if err != nil {
		t.Fatalf("RestoreState after kill: %v", err)
	}
	if int64(restoredSeq) != killedAt {
		t.Fatalf("restored seq %d, killed replica was at %d", restoredSeq, killedAt)
	}
	if got, want := restoredList.Fingerprint(), origin.Chain().Fingerprint(restoredSeq); got != want {
		t.Fatalf("restored fingerprint %s, chain says %s", got, want)
	}
	rep2.OnSwap = verifiedSwap(rep2)
	origin.SetHead(h.Len() - 1)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := rep2.Poll(ctx2); err != nil {
		t.Fatalf("Poll after restore: %v", err)
	}
	if rep2.CurrentSeq() != int64(h.Len()-1) || rep2.Lag() != 0 {
		t.Fatalf("restarted replica at %d lag %d, want %d/0", rep2.CurrentSeq(), rep2.Lag(), h.Len()-1)
	}
	if rep2.FullSyncs() != 0 {
		t.Fatalf("restarted replica performed %d full syncs; resume must patch forward only", rep2.FullSyncs())
	}
	if rep2.Applied() == 0 {
		t.Fatal("restarted replica applied no patches despite the advanced head")
	}
	swapMu.Lock()
	if len(badSwaps) != 0 {
		t.Fatalf("restarted replica swapped in unverified lists: %v", badSwaps[0])
	}
	swapMu.Unlock()

	// Tear everything down and demand the goroutine count returns to
	// the baseline: no leaked pollers, servers, or keep-alive readers.
	repClient.CloseIdleConnections()
	rep2Client.CloseIdleConnections()
	originTS.Close()
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d now vs %d at start\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}

	t.Logf("chaos e2e: %d lookups, faults per phase %v, %d retries, %d fallbacks, %d persisted, resumed at %d",
		res.Lookups, fired, rep.Retries(), rep.Fallbacks(), rep.Persisted(), restoredSeq)
}
