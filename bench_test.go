// Root benchmark harness: one benchmark per table and figure of the
// paper (see DESIGN.md's per-experiment index), plus the ablation
// benchmarks for the design choices called out there. Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dnssim"
	"repro/internal/experiments"
	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/iana"
	"repro/internal/obs"
	"repro/internal/psl"
	"repro/internal/repos"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/staleness"
	"repro/internal/submit"
)

// benchEnv is shared across benchmarks; generation cost is paid once,
// outside any timer.
var (
	benchOnce sync.Once
	benchE    *experiments.Env
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchE = experiments.New(history.DefaultSeed, 0.2)
		benchE.Pipeline() // pre-build so per-artefact benches measure their own work
	})
	return benchE
}

// BenchmarkFig2Growth regenerates Figure 2: list size and component mix
// per version.
func BenchmarkFig2Growth(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.H.GrowthSeries()
	}
}

// BenchmarkTable1Taxonomy regenerates Table 1: the usage taxonomy.
func BenchmarkTable1Taxonomy(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repos.Table1(e.Corpus)
	}
}

// BenchmarkFig3ListAge regenerates Figure 3: list-age distributions.
func BenchmarkFig3ListAge(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ListAgeReport(e.Corpus)
	}
}

// BenchmarkFig4Scatter regenerates Figure 4: the popularity scatter.
func BenchmarkFig4Scatter(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Scatter(e.Corpus)
	}
}

// BenchmarkFig5Sites regenerates Figure 5: sites per list version.
func BenchmarkFig5Sites(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pipeline().SitesSeries()
	}
}

// BenchmarkFig6ThirdParty regenerates Figure 6: third-party requests
// per list version.
func BenchmarkFig6ThirdParty(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pipeline().ThirdPartySeries()
	}
}

// BenchmarkFig7Divergence regenerates Figure 7: hostnames whose site
// differs from the latest list.
func BenchmarkFig7Divergence(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pipeline().DivergenceSeries()
	}
}

// BenchmarkTable2MissingETLDs regenerates Table 2: the largest
// misclassified eTLDs with per-class project counts.
func BenchmarkTable2MissingETLDs(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pipeline().MissingETLDs(e.Corpus)
	}
}

// BenchmarkTable3Projects regenerates the appendix Table 3: per-project
// recomputed missing-hostname counts.
func BenchmarkTable3Projects(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pipeline().ProjectHarm(e.Corpus)
	}
}

// BenchmarkMisclassifiedSeries regenerates the extension series of
// requests erroneously treated as first-party.
func BenchmarkMisclassifiedSeries(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pipeline().MisclassifiedFirstPartySeries()
	}
}

// BenchmarkStalenessCompare runs the update-policy Monte Carlo with the
// measured harm curve.
func BenchmarkStalenessCompare(b *testing.B) {
	e := env(b)
	harm := e.Pipeline().HarmCurve()
	cfg := staleness.Config{Seed: history.DefaultSeed, HorizonDays: 5 * 365, Trials: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		staleness.Compare(cfg, staleness.DefaultPolicies(), harm)
	}
}

// BenchmarkHarmByCategory regenerates the category harm breakdown.
func BenchmarkHarmByCategory(b *testing.B) {
	e := env(b)
	db := iana.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pipeline().HarmByCategory(e.Corpus, db)
	}
}

// BenchmarkStalenessCompareParallel is the Monte Carlo fanned across
// policies (bit-identical results to BenchmarkStalenessCompare's body).
func BenchmarkStalenessCompareParallel(b *testing.B) {
	e := env(b)
	harm := e.Pipeline().HarmCurve()
	cfg := staleness.Config{Seed: history.DefaultSeed, HorizonDays: 5 * 365, Trials: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		staleness.CompareParallel(cfg, staleness.DefaultPolicies(), harm, 0)
	}
}

// --- serving layer ----------------------------------------------------

// serveBenchEnv is shared by the serve benchmarks: a query service over
// a down-scaled history plus a deterministic host pool. Generation cost
// is paid once, outside any timer.
var (
	serveOnce  sync.Once
	serveSvc   *serve.Service
	serveHosts []string
)

func serveEnv(b *testing.B) (*serve.Service, []string) {
	b.Helper()
	serveOnce.Do(func() {
		h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 60})
		serveSvc = serve.NewFromHistory(h, h.Len()-1, serve.Options{})
		serveHosts = loadgen.Hostnames(serveSvc.Current().List, 4096, 17)
	})
	return serveSvc, serveHosts
}

// BenchmarkServeLookup measures the query service's lookup path, which
// normalizes, matches and resolves every query: "cold" makes every
// query a never-seen hostname, so it also prices building that name.
func BenchmarkServeLookup(b *testing.B) {
	svc, _ := serveEnv(b)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			host := "h" + strconv.Itoa(i) + ".cold.example.com"
			if _, err := svc.Lookup(host); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeLookupInstrumented quantifies the observability tax on
// the lookup path: the same lookup loop with the metrics layer on (the
// default: counters on every lookup, latency timing sampled 1/256)
// versus Options.DisableMetrics. The acceptance bar is <=5% overhead;
// compare the two sub-benchmarks' ns/op.
func BenchmarkServeLookupInstrumented(b *testing.B) {
	_, hosts := serveEnv(b)
	h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 60})
	const working = 1024
	for name, opts := range map[string]serve.Options{
		"instrumented":   {},
		"uninstrumented": {DisableMetrics: true},
	} {
		b.Run(name, func(b *testing.B) {
			svc := serve.NewFromHistory(h, h.Len()-1, opts)
			if name == "instrumented" {
				svc.RegisterMetrics(obs.NewRegistry())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Lookup(hosts[i%working]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeLookupParallel drives the lock-free read path from all
// cores with a Zipf-distributed host mix, the shape the load generator
// uses.
func BenchmarkServeLookupParallel(b *testing.B) {
	svc, hosts := serveEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(23))
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(hosts)-1))
		for pb.Next() {
			if _, err := svc.Lookup(hosts[zipf.Uint64()]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchBatchSize is the row count of one batch in the batch-vs-single
// bars below.
const benchBatchSize = 256

// medianNs sorts ds and returns its middle value in nanoseconds. The
// batch-vs-single bars judge per-iteration medians, so a preemption or
// GC pause that lands on one side cannot decide a bar.
func medianNs(ds []time.Duration) float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[len(ds)/2].Nanoseconds())
}

// BenchmarkBatchRowVsSingle is a perf bar: a LookupBatch row must cost
// no more than 1.15x a single Lookup. Each iteration times one 256-row
// batch and the same 256 hosts as single lookups, so host load hits
// both sides alike. Both sides are dominated by the same
// Snapshot.Resolve; the 15% margin absorbs timer noise while still
// tripping on a real per-row cost such as one allocation.
func BenchmarkBatchRowVsSingle(b *testing.B) {
	svc, hosts := serveEnv(b)
	hosts = hosts[:benchBatchSize]
	dst := svc.LookupBatch(hosts, nil) // sizes dst for the measured batches
	batch, single := make([]time.Duration, b.N), make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		dst = svc.LookupBatch(hosts, dst[:0])
		t1 := time.Now()
		for _, h := range hosts {
			_, _ = svc.Lookup(h)
		}
		batch[i], single[i] = t1.Sub(t0), time.Since(t1)
	}
	b.StopTimer()
	rowNs, singleNs := medianNs(batch)/benchBatchSize, medianNs(single)/benchBatchSize
	b.ReportMetric(rowNs, "batch_ns/row")
	b.ReportMetric(singleNs, "single_ns/lookup")
	// The framework's one-iteration probe run is too short to judge.
	if b.N > 1 && rowNs > 1.15*singleNs {
		b.Fatalf("a batch row costs %.1f ns, more than 1.15x a single lookup (%.1f ns)", rowNs, singleNs)
	}
}

// BenchmarkHTTPBatchVsSingle is a perf bar: one 256-row binary POST to
// /v1/batch must deliver at least 3x the rows/s of single /v1/lookup
// GETs on the same keep-alive connection. Each iteration times one
// batch and one single GET, so host load hits both sides alike.
func BenchmarkHTTPBatchVsSingle(b *testing.B) {
	svc, hosts := serveEnv(b)
	hosts = hosts[:benchBatchSize]
	srv := httptest.NewServer(svc)
	defer srv.Close()
	client := srv.Client()
	payload, err := serve.EncodeBatchRequest(hosts)
	if err != nil {
		b.Fatal(err)
	}
	urls := make([]string, len(hosts))
	for i, h := range hosts {
		urls[i] = srv.URL + serve.LookupPath + "?host=" + url.QueryEscape(h)
	}
	drain := func(resp *http.Response, err error) {
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post := func() (*http.Response, error) {
		return client.Post(srv.URL+serve.BatchPath, serve.BatchBinaryContentType, bytes.NewReader(payload))
	}
	drain(post()) // warm the connection and the batch scratch pool
	batch, single := make([]time.Duration, b.N), make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		drain(post())
		t1 := time.Now()
		drain(client.Get(urls[i%len(urls)]))
		batch[i], single[i] = t1.Sub(t0), time.Since(t1)
	}
	b.StopTimer()
	batchRows := benchBatchSize * 1e9 / medianNs(batch)
	singleReqs := 1e9 / medianNs(single)
	b.ReportMetric(batchRows, "batch_rows/s")
	b.ReportMetric(singleReqs, "single_reqs/s")
	b.ReportMetric(batchRows/singleReqs, "batch/single_ratio")
	// The framework's one-iteration probe run is too short to judge.
	if b.N > 1 && batchRows < 3*singleReqs {
		b.Fatalf("HTTP batch delivers %.0f rows/s, less than 3x single requests (%.0f reqs/s)", batchRows, singleReqs)
	}
}

// --- write path -------------------------------------------------------

// BenchmarkSubmitPublish measures one accepted submission end to end
// through the pipeline: lint, semantic, authorization, risk against the
// scale-0.05 population, and the origin publish, over the full history.
// Each iteration adds a fresh, authorised private rule under "com".
func BenchmarkSubmitPublish(b *testing.B) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	o := dist.NewOrigin(h)
	zone := dnssim.NewZone()
	pop := httparchive.Generate(httparchive.Config{Seed: history.DefaultSeed, Scale: 0.05}, h)
	p, err := submit.New(o, submit.Config{Resolver: zone, Population: pop})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rule := "bench-publish-" + strconv.Itoa(i) + ".com"
		req := submit.Request{Changes: []submit.Change{{Op: "add", Rule: rule, Section: "private"}}}
		zone.AddTXT("_psl."+rule, submit.ComputeID(req))
		s, err := p.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if s.State != submit.StatePublished {
			b.Fatalf("%s ended %s at stage %q", rule, s.State, s.RejectedStage)
		}
	}
}

// BenchmarkListFingerprint measures the canonical sort and hash behind
// List.Fingerprint on the generated head. Each iteration fingerprints a
// cold NewList copy, which holds neither memo, so it prices the one
// sort a list built from unordered rules still pays; lists derived by
// deltas inherit their order and never pay it.
func BenchmarkListFingerprint(b *testing.B) {
	head := history.Generate(history.Config{Seed: history.DefaultSeed}).Latest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := psl.NewList(head.Rules())
		b.StartTimer()
		l.Fingerprint()
	}
}

// --- ablations (DESIGN.md section 5) ---------------------------------

// BenchmarkAblationIncremental measures the changepoint pipeline:
// building per-host assignments and sweeping all 1,142 versions.
func BenchmarkAblationIncremental(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPipeline(e.H, e.Snap)
		p.SitesSeries()
	}
}

// BenchmarkAblationFullRecompute measures the naive alternative at just
// 16 of the 1,142 versions — already far slower than the complete
// incremental sweep above.
func BenchmarkAblationFullRecompute(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 16; s++ {
			seq := s * (e.H.Len() - 1) / 15
			core.SitesAtVersionFull(e.H.ListAt(seq), e.Snap.Hosts)
		}
	}
}

// BenchmarkAblationInterningIDs counts distinct final sites through the
// pipeline's interned site ids.
func BenchmarkAblationInterningIDs(b *testing.B) {
	e := env(b)
	p := e.Pipeline()
	n := len(e.Snap.Hosts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := make(map[int32]struct{}, n)
		for hi := 0; hi < n; hi++ {
			seen[siteID(p, hi)] = struct{}{}
		}
		_ = len(seen)
	}
}

// BenchmarkAblationInterningStrings counts distinct final sites through
// raw site strings, the representation the interning avoids.
func BenchmarkAblationInterningStrings(b *testing.B) {
	e := env(b)
	p := e.Pipeline()
	n := len(e.Snap.Hosts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := make(map[string]struct{}, n)
		for hi := 0; hi < n; hi++ {
			seen[p.FinalSite(hi)] = struct{}{}
		}
		_ = len(seen)
	}
}

// siteID resolves a host's final interned site id without materialising
// the string.
func siteID(p *core.Pipeline, hi int) int32 {
	return p.FinalSiteID(hi)
}
