package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
	"repro/internal/psl"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// layerMetrics is the per-layer table every traced run prints, in
// order. Each name is measured at the call into one layer's public
// entry point (see BENCHMARK.md for where and what it should move).
var layerMetrics = []struct{ name, unit string }{
	{"psl.match_ns", "ns"},
	{"serve.resolve_ns", "ns"},
	{"serve.cache_ns", "ns"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.lookup_ns", "ns"},
	{"serve.batch_row_ns", "ns"},
	{"serve.handler_ns", "ns"},
	{"http.middleware_ns", "ns"},
	{"net.transport_us", "us"},
	{"server.cpu_us_per_op", "us"},
	{"server.alloc_bytes_per_op", "B"},
	{"server.gc_per_kop", "count"},
	{"submit.lint_ms", "ms"},
	{"submit.semantic_ms", "ms"},
	{"submit.authorization_ms", "ms"},
	{"submit.risk_ms", "ms"},
	{"submit.publish_ms", "ms"},
	{"history.listat_ms", "ms"},
	{"dist.poll_ms", "ms"},
	{"dist.patch_bytes", "B"},
	{"serve.swap_ms", "ms"},
	{"psl.compile_ms", "ms"},
	{"edge.read_after_swap_ms", "ms"},
	{"history.generate_s", "s"},
	{"httparchive.generate_s", "s"},
	{"history.rulespans_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.hosts_per_s", "1/s"},
	{"core.fig5_ms", "ms"},
	{"core.fig6_ms", "ms"},
	{"core.fig7_ms", "ms"},
	{"core.tab2_ms", "ms"},
	{"core.pairs_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// groupResult is one layer group's figures from a traced run.
type groupResult struct {
	values map[string]float64
	// selfPerOp is each layer's self time per workload operation, in
	// ns, along the workload's own path.
	selfPerOp map[string]float64
	overhead  float64 // traced vs untraced median latency, percent
}

// traceRun prices the workload's own path (its e2e phase untraced and
// traced, then its layers), then prices the layer groups off that path
// briefly on inputs from the same seed, so every traced run reports the
// whole table.
func traceRun(ctx context.Context, o options, digest string, own func(*outcome) (*groupResult, error)) (*outcome, error) {
	res := &outcome{inputDigest: digest}
	g, err := own(res)
	if err != nil {
		return nil, err
	}
	values := g.values
	merge := func(b *groupResult, err error) error {
		if err != nil {
			return err
		}
		for k, v := range b.values {
			values[k] = v
		}
		return nil
	}
	if o.workload != "lookup" && o.workload != "crawl-batch" {
		in, ops, err := servingSetup(false, o.seed)
		if err != nil {
			return nil, err
		}
		if err := merge(traceServing(ctx, o, in, ops, false, true, res)); err != nil {
			return nil, err
		}
	}
	if o.workload != "publish" {
		_, head, _ := servedHistory()
		in, err := newPublishInputs(head, o.seed, 64)
		if err != nil {
			return nil, err
		}
		if err := merge(tracePublish(ctx, o, in, true, res)); err != nil {
			return nil, err
		}
	}
	if o.workload != "analysis" {
		if err := merge(traceAnalysis(ctx, o, true, res)); err != nil {
			return nil, err
		}
	}
	values["trace.overhead_pct"] = g.overhead
	for _, m := range layerMetrics {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", m.name)
		}
		res.add(m.name, m.unit, v)
	}
	name, self := largest(g.selfPerOp)
	var total float64
	for _, v := range g.selfPerOp {
		total += v
	}
	res.note("self_ns_per_op", g.selfPerOp)
	res.note("largest_self_layer", name)
	fmt.Printf("largest self-time layer on %s: %s, %.1f µs of %.1f µs per operation\n", o.workload, name, self/1e3, total/1e3)
	return res, nil
}

// overheadPct compares the traced phase's median latency with the
// untraced phase's.
func overheadPct(plain, traced []float64) float64 {
	p, t := quantile(sortedCopy(plain), 0.5), quantile(sortedCopy(traced), 0.5)
	return (t - p) / p * 100
}

// ---- serving layers ----

// layerBlock is how many sub-microsecond calls one span covers, so the
// clock read does not dominate what it times.
const layerBlock = 256

// layerSink keeps the priced calls' results live, so the compiler
// cannot drop a call whose result is otherwise unused.
var layerSink int

// discardRW is a ResponseWriter that keeps only the status.
type discardRW struct {
	h    http.Header
	code int
}

func (w *discardRW) Header() http.Header { return w.h }
func (w *discardRW) WriteHeader(c int)   { w.code = c }
func (w *discardRW) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

// traceServing runs the serving e2e phase untraced then traced against a
// fresh pslserver, reads the server's free counters around the untraced
// phase, and then prices each serving layer in memory on the same host
// stream, innermost first.
func traceServing(ctx context.Context, o options, in *servingInputs, ops servingOps, batch, brief bool, res *outcome) (*groupResult, error) {
	phase, warm, nOps := time.Duration(o.seconds)*time.Second/2, warmup, 1<<17
	if brief {
		phase, warm, nOps = time.Second, 300*time.Millisecond, 1<<14
	}
	srv, _, err := startServer(ctx, o.serverBin)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	counter := make([]int64, serveConns)
	w := closedLoop(ctx, srv.addr, ops, warm, counter, nil)
	res.fail(w.attempted, w.failed, w.firstErr)
	before, err := srv.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	plain := closedLoop(ctx, srv.addr, ops, phase, counter, nil)
	res.fail(plain.attempted, plain.failed, plain.firstErr)
	after, err := srv.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	traced := closedLoop(ctx, srv.addr, ops, phase, counter, &epoch)
	res.fail(traced.attempted, traced.failed, traced.firstErr)
	srv.stop()
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return nil, fmt.Errorf("serving phases completed no operation; first error: %v", res.firstErr)
	}
	fc := freeCounters(before, after, plain, batch)

	// The host stream in workload order: Zipf draws for lookup, the
	// shuffled crawl for crawl-batch.
	var keys []int32
	if batch {
		for i := 0; i < len(in.hosts) && (!brief || i < nOps); i++ {
			keys = append(keys, int32(i))
		}
	} else {
		keys = in.streams[0][:nOps]
	}
	tr := &Tracer{epoch: epoch, spans: traced.spans}
	missRatio, err := priceServingLayers(in, keys, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.Spans()
	match := perCall(spans, "psl.match")
	resolve := perCall(spans, "serve.resolve")
	cache := perCall(spans, "serve.cache")
	lookup := perCall(spans, "serve.lookup")
	row := perCall(spans, "serve.batch_row")
	handler := perCall(spans, "serve.handler")
	stack := perCall(spans, "http.middleware")
	e2e := perCall(spans, "net.request")

	g := &groupResult{
		values: map[string]float64{
			"psl.match_ns":              match,
			"serve.resolve_ns":          resolve - match,
			"serve.cache_ns":            cache,
			"serve.cache_hit_ratio":     fc["cache_hit_ratio"],
			"serve.lookup_ns":           lookup,
			"serve.batch_row_ns":        row,
			"serve.handler_ns":          handler,
			"http.middleware_ns":        stack - handler,
			"net.transport_us":          (e2e - stack) / 1e3,
			"server.cpu_us_per_op":      fc["cpu_us_per_op"],
			"server.alloc_bytes_per_op": fc["alloc_bytes_per_op"],
			"server.gc_per_kop":         fc["gc_per_kop"],
		},
		overhead: overheadPct(plain.lat, traced.lat),
	}
	// Self time per request along the workload's path. A lookup request
	// enters Service.Lookup once; a crawl request enters the batch row
	// path once per row. Resolve and match run only on cache misses.
	rows, entry := 1.0, lookup
	inner := "serve.lookup"
	if batch {
		rows, entry, inner = float64(batchRows), row, "serve.batch_row"
	}
	peeled := peel([]float64{e2e, stack, handler, rows * entry})
	g.selfPerOp = map[string]float64{
		"net.transport":   peeled[0],
		"http.middleware": peeled[1],
		"serve.handler":   peeled[2],
		inner:             max(0, rows*(entry-cache-missRatio*resolve)),
		"serve.cache":     rows * cache,
		"serve.resolve":   rows * missRatio * max(0, resolve-match),
		"psl.match":       rows * missRatio * match,
	}
	res.note("serving_free_counters", fc)
	res.note("serving_stream_miss_ratio", missRatio)
	return g, nil
}

// priceServingLayers times each serving layer's public entry point over
// the host stream keys, one layer at a time, innermost first, each on
// fresh state so every layer sees the stream from its start. It returns
// the stream's answer-cache miss ratio.
func priceServingLayers(in *servingInputs, keys []int32, tr *Tracer) (float64, error) {
	head, seq := in.head, in.seq
	pm := psl.NewPackedMatcher(head)
	snap := serve.NewSnapshotWith(head, seq, pm)
	// Inputs in stream order, so the timed loops only index slices.
	hosts := make([]string, len(keys))
	ascii := make([]string, len(keys))
	answers := make([]serve.Answer, len(keys))
	for i, k := range keys {
		a, err := snap.Resolve(in.hosts[k])
		if err != nil {
			return 0, err
		}
		hosts[i], ascii[i], answers[i] = in.hosts[k], a.Host, a
	}
	var sink int
	block := func(name string, n int, body func(i int)) {
		for lo := 0; lo < n; lo += layerBlock {
			hi := min(lo+layerBlock, n)
			sp := tr.Begin(name, int64(lo), -1)
			for i := lo; i < hi; i++ {
				body(i)
			}
			tr.End(sp, int64(hi-lo))
		}
	}
	block("psl.match", len(keys), func(i int) { sink += pm.Match(ascii[i]).SuffixLabels })
	block("serve.resolve", len(keys), func(i int) {
		a, _ := snap.Resolve(hosts[i])
		sink += len(a.ETLD)
	})
	cache := serve.NewCache(serve.DefaultCacheSize)
	misses := 0
	block("serve.cache", len(keys), func(i int) {
		if _, ok := cache.Get(hosts[i]); !ok {
			misses++
			cache.Put(hosts[i], answers[i])
		}
	})
	svc := serve.New(head, seq, serve.Options{})
	block("serve.lookup", len(keys), func(i int) {
		a, _ := svc.Lookup(hosts[i])
		sink += len(a.ETLD)
	})
	svc = serve.New(head, seq, serve.Options{})
	dst := make([]serve.Answer, 0, batchRows)
	for lo := 0; lo < len(keys); lo += batchRows {
		hi := min(lo+batchRows, len(keys))
		sp := tr.Begin("serve.batch_row", int64(lo), -1)
		dst = svc.LookupBatch(hosts[lo:hi], dst[:0])
		tr.End(sp, int64(hi-lo))
	}

	// The HTTP layers take whole requests: one GET per key for lookup
	// streams, one binary batch of batchRows keys for crawl streams.
	batch := len(in.batches) > 0
	var reqs []*http.Request
	var bodies [][]byte
	if batch {
		for lo := 0; lo < len(keys); lo += batchRows {
			hi := min(lo+batchRows, len(keys))
			body, err := serve.EncodeBatchRequest(hosts[lo:hi])
			if err != nil {
				return 0, err
			}
			r, _ := http.NewRequest(http.MethodPost, "http://bench"+serve.BatchPath, nil)
			r.Header.Set("Content-Type", serve.BatchBinaryContentType)
			reqs, bodies = append(reqs, r), append(bodies, body)
		}
	} else {
		byKey := make(map[int32]*http.Request)
		for i, k := range keys {
			r, ok := byKey[k]
			if !ok {
				r, _ = http.NewRequest(http.MethodGet, "http://bench"+serve.LookupPath+"?host="+url.QueryEscape(hosts[i]), nil)
				byKey[k] = r
			}
			reqs = append(reqs, r)
		}
	}
	var bad int
	rw := &discardRW{h: make(http.Header)}
	serveAll := func(name string, h http.Handler) {
		per := layerBlock
		if batch {
			per = 1
		}
		for lo := 0; lo < len(reqs); lo += per {
			hi := min(lo+per, len(reqs))
			sp := tr.Begin(name, int64(lo), -1)
			for i := lo; i < hi; i++ {
				r := reqs[i]
				if batch {
					r.Body = io.NopCloser(bytes.NewReader(bodies[i]))
					r.ContentLength = int64(len(bodies[i]))
				}
				clear(rw.h)
				rw.code = 0
				h.ServeHTTP(rw, r)
				if rw.code != http.StatusOK {
					bad++
				}
			}
			tr.End(sp, int64(hi-lo))
		}
	}
	serveAll("serve.handler", serve.New(head, seq, serve.Options{}))

	// pslserver's composition: access log with a trace ring (logs off)
	// around panic recovery around the request deadline around the mux.
	svc = serve.New(head, seq, serve.Options{})
	mux := http.NewServeMux()
	mux.Handle(serve.LookupPath, svc)
	mux.Handle(serve.BatchPath, svc)
	var hm resilience.HTTPMetrics
	stack := obs.AccessLogTo(nil, obs.NewTraceRing(0, 0),
		resilience.Recover(&hm.Panics, resilience.Deadline(30*time.Second, &hm.DeadlineExceeded, mux)))
	serveAll("http.middleware", stack)
	layerSink = sink
	if bad > 0 {
		return 0, fmt.Errorf("%d in-memory requests did not answer 200", bad)
	}
	return float64(misses) / float64(len(keys)), nil
}

// ---- publish layers ----

// tracePublish runs publish ops untraced then traced on one fresh
// environment. The traced ops carry spans for the submission and its
// verdict stages, the edge poll and the swap inside it, and the edge
// read; after them the history replay, the head compile and the patch
// size are measured on the grown head.
func tracePublish(ctx context.Context, o options, in *publishInputs, brief bool, res *outcome) (*groupResult, error) {
	phase, minOps := time.Duration(o.seconds)*time.Second/2, 3
	if brief {
		phase = 0
	}
	env, err := newPublishEnv(ctx)
	if err != nil {
		return nil, err
	}
	defer env.close()
	next := 0
	for ; next < publishWarmOps; next++ {
		if _, err := env.publishOp(ctx, in, next, nil); err != nil {
			res.fail(1, 1, err)
		}
	}
	plain := publishPhase(ctx, env, in, &next, phase, minOps, nil, res)
	tr := NewTracer(1 << 12)
	traced := publishPhase(ctx, env, in, &next, phase, minOps, tr, res)
	if err := env.verifyEdge(); err != nil {
		res.fail(0, res.attempted-res.failed, err)
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("publish phases completed no operation; first error: %v", res.firstErr)
	}
	self, _ := selfTimes(tr.Spans())
	n := float64(len(traced))
	g := &groupResult{values: map[string]float64{}, selfPerOp: map[string]float64{}, overhead: overheadPct(plain, traced)}
	for name, ns := range self {
		g.selfPerOp[name] = float64(ns) / n
	}

	head := env.o.Head()
	var patch float64
	for k := 0; k < len(traced); k++ {
		patch += float64(len(env.o.Chain().Patch(head-k-1, head-k).Encode()))
	}
	for k := 0; k < minOps; k++ {
		sp := tr.Begin("history.listat", int64(k), -1)
		l := env.h.ListAt(head)
		tr.End(sp, 1)
		sp = tr.Begin("psl.compile", int64(k), -1)
		psl.NewPackedMatcher(l)
		tr.End(sp, 1)
	}
	spans := tr.Spans()
	for _, st := range []string{"lint", "semantic", "authorization", "risk", "publish"} {
		g.values["submit."+st+"_ms"] = perCall(spans, "submit."+st) / 1e6
	}
	g.values["history.listat_ms"] = perCall(spans, "history.listat") / 1e6
	g.values["dist.poll_ms"] = perCall(spans, "dist.poll") / 1e6
	g.values["dist.patch_bytes"] = patch / n
	g.values["serve.swap_ms"] = perCall(spans, "serve.swap") / 1e6
	g.values["psl.compile_ms"] = perCall(spans, "psl.compile") / 1e6
	g.values["edge.read_after_swap_ms"] = perCall(spans, "edge.read_after_swap") / 1e6
	return g, nil
}

// ---- analysis layers ----

// traceAnalysis generates the analysis inputs (timing both generators),
// then runs passes untraced and traced; each traced pass has one span
// per figure or table call, and RuleSpans is timed beside them.
func traceAnalysis(ctx context.Context, o options, brief bool, res *outcome) (*groupResult, error) {
	phase, minOps := time.Duration(o.seconds)*time.Second/2, 1
	if brief {
		phase = 0
	}
	env := newAnalysisEnv(o.seed)
	if res.inputDigest == "" {
		res.inputDigest = env.digest
	}
	want, _ := env.pass(0, nil)
	op := int64(1)
	plain := analysisPhase(ctx, env, &want, phase, minOps, nil, &op, res)
	tr := NewTracer(1 << 10)
	traced := analysisPhase(ctx, env, &want, phase, minOps, tr, &op, res)
	self, _ := selfTimes(tr.Spans())
	for k := 0; k < len(traced); k++ {
		sp := tr.Begin("history.rulespans", int64(k), -1)
		env.h.RuleSpans()
		tr.End(sp, 1)
	}
	if err := env.checkFull(want, o.seed); err != nil {
		res.fail(0, res.attempted-res.failed, err)
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("analysis phases completed no pass; first error: %v", res.firstErr)
	}
	spans := tr.Spans()
	n := float64(len(traced))
	g := &groupResult{values: map[string]float64{}, selfPerOp: map[string]float64{}, overhead: overheadPct(plain, traced)}
	for name, ns := range self {
		g.selfPerOp[name] = float64(ns) / n
	}
	build, fig6 := perCall(spans, "core.build"), perCall(spans, "core.fig6")
	g.values["history.generate_s"] = env.genH.Seconds()
	g.values["httparchive.generate_s"] = env.genS.Seconds()
	g.values["history.rulespans_ms"] = perCall(spans, "history.rulespans") / 1e6
	g.values["core.build_ms"] = build / 1e6
	g.values["core.hosts_per_s"] = float64(len(env.snap.Hosts)) / (build / 1e9)
	g.values["core.fig5_ms"] = perCall(spans, "core.fig5") / 1e6
	g.values["core.fig6_ms"] = fig6 / 1e6
	g.values["core.fig7_ms"] = perCall(spans, "core.fig7") / 1e6
	g.values["core.tab2_ms"] = perCall(spans, "core.tab2") / 1e6
	g.values["core.pairs_per_s"] = float64(len(env.snap.Pairs)) / (fig6 / 1e9)
	return g, nil
}
