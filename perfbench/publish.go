package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/dist"
	"repro/internal/dnssim"
	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/psl"
	"repro/internal/serve"
	"repro/internal/submit"
)

// Publish-workload shape.
const (
	publishPopulationScale = 0.05 // population the risk stage scores each submission against
	publishPoolHosts       = 2048 // hosts the edge batch draws its other rows from
	publishSetups          = 5
	// publishWarmOps brings the edge to its steady state before timing.
	// A bootstrapped edge list arrives in sorted order and verifying a
	// patch's fingerprint sorts a copy of it; every applied patch appends
	// its rule out of order, and after about ten the sort no longer hits
	// its nearly-sorted fast path, so Poll settles several times slower
	// than on the first hops.
	publishWarmOps = 12
)

// publishInputs are the seeded submissions and edge reads.
type publishInputs struct {
	rules  []string   // one private rule per op, in list-file syntax
	pool   []string   // existing hosts for the edge batch
	expect []poolWant // their answers under the base head
	digest string
}

// poolWant is the part of an answer a new private rule elsewhere in the
// list must not change.
type poolWant struct {
	etld, site string
}

// newPublishInputs derives n distinct single-rule submissions from
// seed: a fresh label under a seeded ICANN top-level rule, added to the
// private section.
func newPublishInputs(head *psl.List, seed int64, n int) (*publishInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var tlds []string
	for _, r := range head.Rules() {
		if r.Section == psl.SectionICANN && !r.Wildcard && !r.Exception && r.Labels() == 1 {
			tlds = append(tlds, r.Suffix)
		}
	}
	if len(tlds) == 0 {
		return nil, errors.New("head list has no single-label ICANN rules")
	}
	in := &publishInputs{}
	tag := rng.Uint32()
	for i := 0; i < n; i++ {
		in.rules = append(in.rules, fmt.Sprintf("pb%08x-%d.%s", tag, i, tlds[rng.Intn(len(tlds))]))
	}
	in.pool = lookupHosts(head, publishPoolHosts, rng)
	snap := serve.NewSnapshotWith(head, -1, head.Matcher())
	for _, h := range in.pool {
		a, err := snap.Resolve(h)
		if err != nil {
			return nil, err
		}
		if err := crossCheck(head, h, a); err != nil {
			return nil, err
		}
		in.expect = append(in.expect, poolWant{a.ETLD, a.Site})
	}
	in.digest = digestInputs(append(append([]string(nil), in.rules...), in.pool...), nil)
	return in, nil
}

// publishEnv is the write path beside the reads: an origin with the
// full history and a submission pipeline, its /dist/ protocol on a
// loopback listener, and an edge replica feeding an edge query service.
type publishEnv struct {
	h     *history.History
	o     *dist.Origin
	zone  *dnssim.Zone
	pipe  *submit.Pipeline
	srv   *http.Server
	done  chan struct{}
	rep   *dist.Replica
	edge  *serve.Service
	fails int // installs whose fingerprint disagreed with the origin's chain
	// bootSyncs is FullSyncs after the bootstrap, which is one.
	bootSyncs uint64

	// tracing hooks for the install callback, which runs inside Poll.
	tr       *Tracer
	op       int64
	pollSpan int
}

// newPublishEnv builds the environment; the whole call is the
// workload's set-up.
func newPublishEnv(ctx context.Context) (*publishEnv, error) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	e := &publishEnv{h: h, o: dist.NewOrigin(h), zone: dnssim.NewZone(), done: make(chan struct{})}
	e.o.SetHead(h.Len() - 1)
	pop := httparchive.Generate(httparchive.Config{Seed: history.DefaultSeed, Scale: publishPopulationScale}, h)
	pipe, err := submit.New(e.o, submit.Config{Resolver: e.zone, Population: pop})
	if err != nil {
		return nil, err
	}
	e.pipe = pipe
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle(dist.Prefix, e.o)
	e.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln)
	}()
	e.rep = dist.NewReplica("http://"+ln.Addr().String(), dist.ReplicaOptions{})
	l, seq, err := e.rep.Bootstrap(ctx, -1)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("edge bootstrap: %w", err)
	}
	e.bootSyncs = e.rep.FullSyncs()
	e.edge = serve.NewWith(l, seq, l.Fingerprint(), nil, serve.Options{})
	e.rep.OnInstall = func(l *psl.List, seq int, fp string, m psl.Matcher) {
		if fp != e.o.Chain().Fingerprint(seq) {
			e.fails++
		}
		sp := e.tr.Begin("serve.swap", e.op, e.pollSpan)
		e.edge.SwapVerified(l, seq, fp, m)
		e.tr.End(sp, 1)
	}
	return e, nil
}

func (e *publishEnv) close() {
	_ = e.srv.Close()
	<-e.done
}

// publishOp is one timed submission → edge read. It returns an error
// for anything short of the new rule being answered at the new seq.
func (e *publishEnv) publishOp(ctx context.Context, in *publishInputs, i int, tr *Tracer) (time.Duration, error) {
	rule := in.rules[i]
	req := submit.Request{Changes: []submit.Change{{Op: "add", Rule: rule, Section: "private"}}, Contact: "bench@example.test"}
	e.zone.AddTXT("_psl."+rule, submit.ComputeID(req))
	probe := "www." + rule
	hosts := make([]string, 0, batchRows)
	for k := 0; k < batchRows-1; k++ {
		hosts = append(hosts, in.pool[(i*(batchRows-1)+k)%len(in.pool)])
	}
	hosts = append(hosts, probe)
	e.tr, e.op = tr, int64(i)

	t0 := time.Now()
	opSpan := tr.Begin("publish.op", int64(i), -1)
	subSpan := tr.Begin("submit", int64(i), opSpan)
	sub, err := e.pipe.Submit(req)
	tr.End(subSpan, 1)
	if err != nil {
		return 0, err
	}
	e.pollSpan = tr.Begin("dist.poll", int64(i), opSpan)
	err = e.rep.Poll(ctx)
	tr.End(e.pollSpan, 1)
	if err != nil {
		return 0, fmt.Errorf("poll: %w", err)
	}
	readSpan := tr.Begin("edge.read_after_swap", int64(i), opSpan)
	ans := e.edge.LookupBatch(hosts, make([]serve.Answer, 0, len(hosts)))
	tr.End(readSpan, 1)
	tr.End(opSpan, 1)
	lat := time.Since(t0)

	if sub.State != submit.StatePublished {
		return 0, fmt.Errorf("submission %s ended %s at stage %q", rule, sub.State, sub.RejectedStage)
	}
	if len(sub.Verdicts) != len(submit.Stages) {
		return 0, fmt.Errorf("submission %s: %d verdicts", rule, len(sub.Verdicts))
	}
	prev := t0
	for k, v := range sub.Verdicts {
		if !v.Passed || v.Stage != submit.Stages[k] {
			return 0, fmt.Errorf("submission %s: verdict %d %+v", rule, k, v)
		}
		tr.Add("submit."+v.Stage, int64(i), subSpan, prev, v.At)
		prev = v.At
	}
	if got := e.rep.CurrentSeq(); got != int64(sub.PublishedSeq) {
		return 0, fmt.Errorf("edge at seq %d after poll, published %d", got, sub.PublishedSeq)
	}
	for k, a := range ans[:len(ans)-1] {
		w := in.expect[(i*(batchRows-1)+k)%len(in.pool)]
		if a.Error != "" || a.ETLD != w.etld || a.Site != w.site || a.Seq != sub.PublishedSeq {
			return 0, fmt.Errorf("edge row %q: %+v, want etld %q site %q seq %d", hosts[k], a, w.etld, w.site, sub.PublishedSeq)
		}
	}
	if a := ans[len(ans)-1]; a.ETLD != rule || a.Site != probe || a.Section != "private" || a.Seq != sub.PublishedSeq {
		return 0, fmt.Errorf("edge answer for %q under new rule: %+v", probe, a)
	}
	return lat, nil
}

// verifyEdge is the end-of-run replication check: no unverified swap,
// no verify failure and no full resync after the bootstrap.
func (e *publishEnv) verifyEdge() error {
	if syncs := e.rep.FullSyncs() - e.bootSyncs; e.fails != 0 || e.rep.VerifyFailures() != 0 || syncs != 0 {
		return fmt.Errorf("edge replica: %d unverified installs, %d verify failures, %d full syncs after bootstrap",
			e.fails, e.rep.VerifyFailures(), syncs)
	}
	return nil
}
