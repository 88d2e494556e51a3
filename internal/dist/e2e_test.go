package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/history"
	"repro/internal/psl"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// oracle lazily materialises library lists per version and checks that
// an answer agrees with psl.List for the seq the answer names. Lists
// are cached because ListAt replays the event history per call.
type oracle struct {
	mu    sync.Mutex
	h     *history.History
	lists map[int]*psl.List
}

func newOracle(h *history.History) *oracle {
	return &oracle{h: h, lists: make(map[int]*psl.List)}
}

func (o *oracle) listAt(seq int) (*psl.List, error) {
	if seq < 0 || seq >= o.h.Len() {
		return nil, fmt.Errorf("answer names unknown seq %d", seq)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	l, ok := o.lists[seq]
	if !ok {
		l = o.h.ListAt(seq)
		o.lists[seq] = l
	}
	return l, nil
}

func (o *oracle) verify(a serve.Answer) error {
	l, err := o.listAt(a.Seq)
	if err != nil {
		return err
	}
	suffix, icann, err := l.PublicSuffix(a.Query)
	if err != nil {
		return fmt.Errorf("oracle rejects %q: %v", a.Query, err)
	}
	if a.ETLD != suffix || a.ICANN != icann {
		return fmt.Errorf("host %q seq %d: got etld=%q icann=%v, oracle %q %v",
			a.Query, a.Seq, a.ETLD, a.ICANN, suffix, icann)
	}
	site, err := l.Site(a.Query)
	switch {
	case errors.Is(err, psl.ErrIsSuffix):
		if !a.IsSuffix || a.Site != "" {
			return fmt.Errorf("host %q seq %d: got site=%q, oracle says bare suffix", a.Query, a.Seq, a.Site)
		}
	case err != nil:
		return fmt.Errorf("oracle Site(%q): %v", a.Query, err)
	case a.Site != site || a.IsSuffix:
		return fmt.Errorf("host %q seq %d: got site=%q is_suffix=%v, oracle %q",
			a.Query, a.Seq, a.Site, a.IsSuffix, site)
	}
	return nil
}

// advanceAndAwait returns a loadgen swapper that moves the origin head
// forward by step per call and blocks until the replica has caught up,
// so traffic runs against every intermediate state of the follower.
func advanceAndAwait(o *Origin, rep *Replica, step int, perStep time.Duration) func(int) error {
	head := 0
	return func(int) error {
		head += step
		if max := o.Chain().Len() - 1; head > max {
			head = max
		}
		o.SetHead(head)
		deadline := time.Now().Add(perStep)
		for rep.CurrentSeq() < int64(head) {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica stuck at %d, head %d", rep.CurrentSeq(), head)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
}

// TestE2EReplicationFullHistory is the subsystem's acceptance harness:
// an origin walks its head across the full default history (1,142
// versions) while a replica follows over real HTTP and hot-swaps every
// verified hop into a serve.Service under concurrent lookup traffic.
// Every answer is checked against the library oracle for the seq it
// names — zero wrong answers, and the follower ends at lag 0.
func TestE2EReplicationFullHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	h := testHist(t, 1142)
	origin := NewOrigin(h)
	origin.SetHead(0)
	ts := httptest.NewServer(origin)
	defer ts.Close()

	opts := fastOpts()
	opts.MaxHop = 8 // force long hop chains so the sweep replays the history densely
	rep := NewReplica(ts.URL, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	l, seq, err := rep.Bootstrap(ctx, 0)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if seq != 0 {
		t.Fatalf("bootstrap landed on %d, want 0", seq)
	}
	svc := serve.New(l, seq, serve.Options{})
	rep.OnSwap = func(l *psl.List, seq int) { svc.Swap(l, seq) }
	runDone := make(chan struct{})
	go func() { defer close(runDone); rep.Run(ctx) }()

	// Client count is deliberately low: the harness runs on few cores,
	// and busy-looping clients starve the replica's poll goroutine.
	orc := newOracle(h)
	head := h.Len() - 1
	const swaps = 30
	step := (head + swaps - 1) / swaps
	res := loadgen.Run(loadgen.Config{
		Clients:           2,
		RequestsPerClient: 300,
		Seed:              3,
		Hosts:             loadgen.Hostnames(h.ListAt(head), 1500, 11),
		Lookup:            svc.Lookup,
		Verify:            orc.verify,
		Swap:              advanceAndAwait(origin, rep, step, 30*time.Second),
		Swaps:             swaps,
		SwapInterval:      time.Millisecond,
	})
	if res.Swaps != swaps {
		t.Fatalf("only %d/%d head advances completed", res.Swaps, swaps)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d wrong answers out of %d lookups; first: %v",
			res.Mismatches, res.Lookups, res.FirstMismatch)
	}
	if rep.CurrentSeq() != int64(head) || rep.Lag() != 0 {
		t.Fatalf("replica at %d lag %d, want %d/0", rep.CurrentSeq(), rep.Lag(), head)
	}
	if cur := svc.Current(); cur.Seq != head {
		t.Fatalf("service serves seq %d, want %d", cur.Seq, head)
	}
	if min := int64(head) / int64(opts.MaxHop); rep.Applied() < uint64(min) {
		t.Errorf("Applied = %d, want >= %d for %d seqs at MaxHop %d",
			rep.Applied(), min, head, opts.MaxHop)
	}
	cancel()
	<-runDone
	t.Logf("e2e: %d lookups, %d patch hops, %d full syncs, %d retries in %v",
		res.Lookups, rep.Applied(), rep.Fallbacks(), rep.Retries(), res.Elapsed)
}

// TestE2EReplicationWithFailureInjection repeats the sweep with ~35% of
// all dist responses failing (503 bursts, truncated bodies, corrupted
// bytes), all drawn from the wire site's one seeded schedule. The
// replica must still converge — via retries and full-sync fallback —
// and every list it swaps in must carry the exact fingerprint the
// origin's chain records for that seq: corruption is loud, never wrong.
// A failure logs the one-line recipe that re-arms the same schedule.
func TestE2EReplicationWithFailureInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	h := testHist(t, 1142)
	origin := NewOrigin(h)
	origin.SetHead(0)
	ts := httptest.NewServer(fpWire.Wrap(origin))
	defer ts.Close()
	// A status fire poisons three responses, so status(0.04) fails ~12%.
	const seed, faults = 17, "status(0.04)|truncate(0.12)|bitflip(0.11)"
	recipe := failpoint.Recipe(seed, wireSite+"="+faults)
	t.Cleanup(func() {
		if t.Failed() {
			t.Log("re-run: " + recipe)
		}
	})
	injected := fpWire.Triggers()

	opts := fastOpts()
	opts.BackoffMax = 10 * time.Millisecond
	opts.MaxHop = 64
	// At 35% injection, runs of 5 transport failures will trip the
	// breaker now and then; keep its open window short so the sweep
	// spends its time replicating, not fast-failing.
	opts.BreakerOpenFor = 10 * time.Millisecond
	rep := NewReplica(ts.URL, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Bootstrap on a clean wire, then poison it for the whole follow.
	l, seq, err := rep.Bootstrap(ctx, 0)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	svc := serve.New(l, seq, serve.Options{})

	var swapMu sync.Mutex
	var badSwaps []string
	rep.OnSwap = func(l *psl.List, seq int) {
		if got, want := l.Fingerprint(), origin.Chain().Fingerprint(seq); got != want {
			swapMu.Lock()
			badSwaps = append(badSwaps, fmt.Sprintf("seq %d: %s != chain %s", seq, got, want))
			swapMu.Unlock()
		}
		svc.Swap(l, seq)
	}
	runDone := make(chan struct{})
	go func() { defer close(runDone); rep.Run(ctx) }()

	armWire(t, faults, seed)
	orc := newOracle(h)
	head := h.Len() - 1
	const swaps = 12
	step := (head + swaps - 1) / swaps
	res := loadgen.Run(loadgen.Config{
		Clients:           2,
		RequestsPerClient: 150,
		Seed:              5,
		Hosts:             loadgen.Hostnames(h.ListAt(head), 1000, 13),
		Lookup:            svc.Lookup,
		Verify:            orc.verify,
		Swap:              advanceAndAwait(origin, rep, step, 60*time.Second),
		Swaps:             swaps,
		SwapInterval:      time.Millisecond,
	})
	if res.Swaps != swaps {
		t.Fatalf("only %d/%d head advances completed under injection", res.Swaps, swaps)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d wrong answers; first: %v", res.Mismatches, res.FirstMismatch)
	}
	swapMu.Lock()
	defer swapMu.Unlock()
	if len(badSwaps) != 0 {
		t.Fatalf("replica swapped in %d unverified lists: %v", len(badSwaps), badSwaps[0])
	}
	if rep.CurrentSeq() != int64(head) || rep.Lag() != 0 {
		t.Fatalf("replica at %d lag %d, want %d/0", rep.CurrentSeq(), rep.Lag(), head)
	}
	injected = fpWire.Triggers() - injected
	if injected == 0 {
		t.Fatalf("wire site never fired; the test proved nothing")
	}
	if rep.VerifyFailures() == 0 && rep.Retries() == 0 && rep.pollErrors.Load() == 0 {
		t.Errorf("no verify failures, retries or poll errors despite %d injected faults", injected)
	}
	cancel()
	<-runDone
	t.Logf("injection e2e: %d faults injected, %d verify failures, %d retries, %d fallbacks, %d hops",
		injected, rep.VerifyFailures(), rep.Retries(), rep.Fallbacks(), rep.Applied())
}
