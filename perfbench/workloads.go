package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// latencyMetrics adds p50_ms for per-op latencies in ns, and records
// the tail — the highest percentile with at least minBeyond samples
// beyond it — with the sample count it rests on. The tail is recorded,
// not gated: on the shared two-CPU host it moved by more than any
// allowed bound between runs of the same code (BENCHMARK.md).
func latencyMetrics(res *outcome, lat []float64) {
	s := sortedCopy(lat)
	q, ok := tailQuantile(len(s))
	res.add("p50_ms", "ms", quantile(s, 0.5)/1e6)
	res.note("samples", len(s))
	res.note("tail_percentile", pctLabel(q))
	res.note("tail_ms", quantile(s, q)/1e6)
	res.note("p90_ms", quantile(s, 0.90)/1e6)
	res.note("p99_ms", quantile(s, 0.99)/1e6)
	if !ok {
		res.note("tail_warning", fmt.Sprintf("fewer than %d samples beyond any tail percentile", minBeyond))
	}
}

// ---- serving workloads: lookup and crawl-batch ----

func servingSetup(batch bool, seed int64) (*servingInputs, servingOps, error) {
	if batch {
		in, err := newCrawlInputs(seed)
		if err != nil {
			return nil, nil, err
		}
		return in, crawlOps{in: in, next: new(atomic.Int64)}, nil
	}
	in, err := newLookupInputs(seed)
	if err != nil {
		return nil, nil, err
	}
	return in, lookupOps{in: in}, nil
}

// runServing measures lookup (batch=false) or crawl-batch (batch=true).
func runServing(ctx context.Context, o options, batch bool) (*outcome, error) {
	in, ops, err := servingSetup(batch, o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceRun(ctx, o, in.digest, func(res *outcome) (*groupResult, error) {
			return traceServing(ctx, o, in, ops, batch, false, res)
		})
	}
	res := &outcome{inputDigest: in.digest}
	runtime.GC()
	var setups []float64
	var srv *server
	for k := 0; k < serverSetups; k++ {
		s, d, err := startServer(ctx, o.serverBin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < serverSetups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	res.note("setup_s_all", setups)

	counter := make([]int64, serveConns)
	warm := closedLoop(ctx, srv.addr, ops, warmup, counter, nil)
	res.fail(warm.attempted, warm.failed, warm.firstErr)
	before, err := srv.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	s0, c0 := hostCPU()
	m := closedLoop(ctx, srv.addr, ops, time.Duration(o.seconds)*time.Second, counter, nil)
	s1, c1 := hostCPU()
	res.fail(m.attempted, m.failed, m.firstErr)
	res.note("host_steal_share", stealShare(s0, c0, s1, c1))
	after, err := srv.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if len(m.lat) == 0 {
		return nil, fmt.Errorf("no operation completed; first error: %v", m.firstErr)
	}
	res.add("setup_s", "s", median(setups))
	// Completions per half-second window, median over the windows: a
	// burst of CPU stolen by the host's neighbours moves a few windows,
	// not the figure.
	res.add("ops_per_s", "1/s", median(m.windows)/rateWindow.Seconds())
	latencyMetrics(res, m.lat)
	res.add("peak_rss_mb", "MB", rss)
	res.note("server_counters", freeCounters(before, after, m, batch))
	res.note("window_rates", m.windows)
	res.note("mean_rate", float64(m.units)/m.elapsed.Seconds())
	return res, nil
}

// freeCounters derives the outside-the-process figures of one measured
// phase: answer-cache hit ratio, and server CPU, allocation and GC per
// operation (per request for lookup, per host row for crawl-batch).
func freeCounters(before, after counters, m loopResult, batch bool) map[string]float64 {
	var hits, misses float64
	if batch {
		hits = sumDelta(before, after, "psl_serve_batch_rows_total", `result="hit"`)
		misses = sumDelta(before, after, "psl_serve_batch_rows_total", `result="miss"`)
	} else {
		hits = sumDelta(before, after, "psl_serve_lookups_total", `result="hit"`)
		misses = sumDelta(before, after, "psl_serve_lookups_total", `result="miss"`)
	}
	ops := float64(m.units)
	out := map[string]float64{
		"ops":                  ops,
		"cache_hit_ratio":      hits / max(hits+misses, 1),
		"cpu_us_per_op":        float64(after.cpuTick-before.cpuTick) * (1e6 / clockTick) / max(ops, 1),
		"alloc_bytes_per_op":   sumDelta(before, after, "psl_runtime_heap_alloc_bytes_total", "") / max(ops, 1),
		"gc_per_kop":           sumDelta(before, after, "psl_runtime_gc_cycles_total", "") * 1000 / max(ops, 1),
		"server_cpu_util":      float64(after.cpuTick-before.cpuTick) / clockTick / m.elapsed.Seconds(),
		"cache_hits":           hits,
		"cache_misses":         misses,
		"admission_rejections": sumDelta(before, after, "psl_serve_rejected_total", "") + sumDelta(before, after, "psl_serve_batch_rejected_total", ""),
	}
	return out
}

// sumDelta sums after-before over every sample of the family whose
// label block contains label.
func sumDelta(before, after counters, family, label string) float64 {
	var d float64
	for k, v := range after.metrics {
		name, labels, _ := strings.Cut(strings.TrimSuffix(k, "}"), "{")
		if name == family && strings.Contains(labels, label) {
			d += v - before.metrics[k]
		}
	}
	return d
}

// ---- publish ----

// publishRules bounds the distinct submissions one run can make.
const publishRules = 4096

// publishPhase runs ops from next on until d elapses and at least
// minOps ran, timing each.
func publishPhase(ctx context.Context, e *publishEnv, in *publishInputs, next *int, d time.Duration, minOps int, tr *Tracer, res *outcome) []float64 {
	var lat []float64
	end := time.Now().Add(d)
	for n := 0; (n < minOps || time.Now().Before(end)) && ctx.Err() == nil; n++ {
		if *next >= len(in.rules) {
			res.fail(1, 1, fmt.Errorf("ran out of the %d seeded submissions", len(in.rules)))
			break
		}
		// A submission is a rare event that meets a collected heap, not
		// the garbage of the one before it; the collection is not timed.
		runtime.GC()
		s0, c0 := hostCPU()
		l, err := e.publishOp(ctx, in, *next, tr)
		s1, c1 := hostCPU()
		*next++
		if err != nil {
			res.fail(1, 1, err)
			continue
		}
		res.fail(1, 0, nil)
		lat = append(lat, float64(l))
		res.steal = append(res.steal, stealShare(s0, c0, s1, c1))
	}
	return lat
}

func runPublish(ctx context.Context, o options) (*outcome, error) {
	_, head, _ := servedHistory()
	in, err := newPublishInputs(head, o.seed, publishRules)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceRun(ctx, o, in.digest, func(res *outcome) (*groupResult, error) {
			return tracePublish(ctx, o, in, false, res)
		})
	}
	res := &outcome{inputDigest: in.digest}
	var setups []float64
	var env *publishEnv
	for k := 0; k < publishSetups; k++ {
		runtime.GC()
		t0 := time.Now()
		e, err := newPublishEnv(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < publishSetups-1 {
			e.close()
		} else {
			env = e
		}
	}
	defer env.close()
	res.note("setup_s_all", setups)
	next := 0
	for ; next < publishWarmOps; next++ {
		if _, err := env.publishOp(ctx, in, next, nil); err != nil {
			res.fail(1, 1, err)
		}
	}
	t0 := time.Now()
	lat := publishPhase(ctx, env, in, &next, time.Duration(o.seconds)*time.Second, 1, nil, res)
	elapsed := time.Since(t0)
	if err := env.verifyEdge(); err != nil {
		res.fail(0, res.attempted-res.failed, err)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no publish completed; first error: %v", res.firstErr)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.add("setup_s", "s", median(setups))
	res.add("ops_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	latencyMetrics(res, lat)
	res.add("peak_rss_mb", "MB", rss)
	res.note("op_ms", msList(lat))
	res.note("op_steal", res.steal)
	return res, nil
}

// msList converts ns latencies to ms, for the run record.
func msList(lat []float64) []float64 {
	out := make([]float64, len(lat))
	for i, v := range lat {
		out[i] = v / 1e6
	}
	return out
}

// ---- analysis ----

// analysisPhase runs passes until d elapses and at least minOps ran;
// every pass must reproduce want's digest (the warm-up pass's).
func analysisPhase(ctx context.Context, e *analysisEnv, want *passOut, d time.Duration, minOps int, tr *Tracer, op *int64, res *outcome) []float64 {
	var lat []float64
	end := time.Now().Add(d)
	for n := 0; (n < minOps || time.Now().Before(end)) && ctx.Err() == nil; n++ {
		// Each pass starts from a collected heap, as a pass in a fresh
		// process would; the collection is not timed.
		runtime.GC()
		s0, c0 := hostCPU()
		out, l := e.pass(*op, tr)
		s1, c1 := hostCPU()
		*op++
		if out.digest != want.digest {
			res.fail(1, 1, fmt.Errorf("pass %d digest %s, first pass %s", *op, out.digest, want.digest))
			continue
		}
		res.fail(1, 0, nil)
		lat = append(lat, float64(l))
		res.steal = append(res.steal, stealShare(s0, c0, s1, c1))
	}
	return lat
}

func runAnalysis(ctx context.Context, o options) (*outcome, error) {
	if o.trace {
		return traceRun(ctx, o, "", func(res *outcome) (*groupResult, error) {
			return traceAnalysis(ctx, o, false, res)
		})
	}
	res := &outcome{}
	var setups []float64
	var env *analysisEnv
	for k := 0; k < analysisSetups; k++ {
		env = nil
		runtime.GC()
		t0 := time.Now()
		env = newAnalysisEnv(o.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.inputDigest = env.digest
	res.note("setup_s_all", setups)
	runtime.GC()
	var want passOut
	var op int64
	for ; op < analysisWarmOps; op++ {
		want, _ = env.pass(op, nil)
	}
	t0 := time.Now()
	lat := analysisPhase(ctx, env, &want, time.Duration(o.seconds)*time.Second, 1, nil, &op, res)
	elapsed := time.Since(t0)
	if err := env.checkFull(want, o.seed); err != nil {
		res.fail(0, res.attempted-res.failed, err)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no analysis pass completed")
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.add("setup_s", "s", median(setups))
	res.add("ops_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	latencyMetrics(res, lat)
	res.add("peak_rss_mb", "MB", rss)
	res.note("series_digest", want.digest)
	res.note("op_ms", msList(lat))
	res.note("op_steal", res.steal)
	return res, nil
}

// sourceDigest hashes the Go sources and module files under root (the
// checkout the binaries were built from), skipping build output and
// hidden directories, so a record names its code even without git.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
