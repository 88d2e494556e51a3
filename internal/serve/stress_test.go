package serve_test

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/history"
	"repro/internal/psl"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// stressEnv prepares a history service plus the pre-materialised
// per-version lists the oracle verifies against. Every list the swapper
// installs is also the list the oracle consults for that seq, so a
// response is wrong exactly when it disagrees with the library answer
// for the version it claims to have used.
type stressEnv struct {
	svc   *serve.Service
	lists []*psl.List
	hosts []string
}

func newStressEnv(t testing.TB, versions int) *stressEnv {
	t.Helper()
	h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: versions})
	lists := make([]*psl.List, h.Len())
	for i := range lists {
		lists[i] = h.ListAt(i)
	}
	svc := serve.New(lists[len(lists)-1], len(lists)-1, serve.Options{History: h})
	return &stressEnv{
		svc:   svc,
		lists: lists,
		hosts: loadgen.Hostnames(lists[len(lists)-1], 2000, 7),
	}
}

// verify checks one answer against the library oracle for the version
// the answer names.
func (e *stressEnv) verify(a serve.Answer) error {
	if a.Seq < 0 || a.Seq >= len(e.lists) {
		return fmt.Errorf("answer names unknown seq %d", a.Seq)
	}
	l := e.lists[a.Seq]
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

// TestStressSwapsUnderLoad is the acceptance harness: >= 16 concurrent
// clients hammer Lookup while a background goroutine performs >= 100
// snapshot swaps across history versions; every answer must match the
// library oracle for the version it names. Run it under -race.
func TestStressSwapsUnderLoad(t *testing.T) {
	e := newStressEnv(t, 40)
	const swaps = 120
	res := loadgen.Run(loadgen.Config{
		Clients:           16,
		RequestsPerClient: 400,
		Seed:              1,
		Hosts:             e.hosts,
		Lookup:            e.svc.Lookup,
		Verify:            e.verify,
		Swap: func(i int) error {
			seq := (i * 13) % len(e.lists)
			e.svc.Swap(e.lists[seq], seq)
			return nil
		},
		Swaps: swaps,
	})
	if res.Swaps < 100 {
		t.Errorf("only %d swaps completed, want >= 100", res.Swaps)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d wrong answers out of %d lookups; first: %v",
			res.Mismatches, res.Lookups, res.FirstMismatch)
	}
	if res.Lookups < 16*400 {
		t.Errorf("only %d lookups issued", res.Lookups)
	}
	t.Logf("stress: %d lookups, %d cached, %d errors, %d swaps in %v",
		res.Lookups, res.Cached, res.Errors, res.Swaps, res.Elapsed)
}

// TestStressSetVersionUnderLoadHTTP repeats the exercise end to end
// over HTTP with SetVersion as the swap primitive, at a smaller scale
// (real sockets are slower than direct calls).
func TestStressSetVersionUnderLoadHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := newStressEnv(t, 30)
	ts := httptest.NewServer(e.svc)
	defer ts.Close()
	res := loadgen.Run(loadgen.Config{
		Clients:           8,
		RequestsPerClient: 50,
		Seed:              2,
		Hosts:             e.hosts,
		Lookup:            loadgen.HTTPLookup(ts.URL, nil),
		Verify:            e.verify,
		Swap: func(i int) error {
			return e.svc.SetVersion((i * 7) % len(e.lists))
		},
		Swaps: 40,
	})
	if res.Mismatches != 0 {
		t.Fatalf("%d wrong answers over HTTP; first: %v", res.Mismatches, res.FirstMismatch)
	}
	if res.Errors != 0 {
		t.Errorf("%d transport/API errors", res.Errors)
	}
}

// TestLoadgenHostnamesDeterministic pins the pool generator: equal
// seeds produce equal pools, and the pool touches wildcard rules.
func TestLoadgenHostnamesDeterministic(t *testing.T) {
	l := psl.MustParse("com\nco.uk\n*.ck\n!www.ck\nblogspot.com\n")
	a := loadgen.Hostnames(l, 100, 3)
	b := loadgen.Hostnames(l, 100, 3)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("pool sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pools diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
