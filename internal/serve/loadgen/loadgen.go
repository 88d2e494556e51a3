// Package loadgen drives a serve.Service (directly or over HTTP) with a
// configurable number of concurrent clients issuing a Zipf-distributed
// hostname mix while, optionally, a background goroutine hot-swaps list
// versions under the traffic. It is the shared harness behind the
// package's race/stress tests and the BenchmarkServeLookup* benchmarks.
//
// Every answer can be verified against a caller-supplied oracle (the
// library answer for the version the response names), so a run doubles
// as a correctness check: under swaps, a response must be internally
// consistent with whichever version produced it.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/psl"
	"repro/internal/serve"
)

// LookupFunc answers one host query; implementations wrap
// serve.Service.Lookup or an HTTP client.
type LookupFunc func(host string) (serve.Answer, error)

// VerifyFunc checks one answer against an oracle; return a non-nil
// error to count a mismatch.
type VerifyFunc func(a serve.Answer) error

// Config parameterises Run.
type Config struct {
	// Clients is the number of concurrent lookup clients (default 16).
	Clients int
	// RequestsPerClient is the minimum number of lookups each client
	// performs (default 500). Clients keep issuing lookups past their
	// minimum until the swapper (if any) has finished, so swaps always
	// happen under load.
	RequestsPerClient int
	// Seed drives host selection; equal seeds give identical mixes.
	Seed int64
	// Hosts is the candidate pool, queried with Zipf-distributed
	// popularity (rank 1 = most popular).
	Hosts []string
	// ZipfS is the Zipf skew parameter (> 1; default 1.3).
	ZipfS float64
	// Lookup answers one query; required.
	Lookup LookupFunc
	// Verify, when set, checks every successful answer.
	Verify VerifyFunc
	// Swap, when set together with Swaps > 0, is called Swaps times
	// from a background goroutine while clients run, SwapInterval
	// apart (default 500µs).
	Swap         func(i int) error
	Swaps        int
	SwapInterval time.Duration
}

// Result aggregates a run.
type Result struct {
	// Lookups is the total number of lookups issued.
	Lookups int64
	// Errors counts lookups that returned an error (invalid-host
	// errors from a dirty pool count here too).
	Errors int64
	// Mismatches counts answers the Verify oracle rejected.
	Mismatches int64
	// Swaps counts completed snapshot swaps.
	Swaps int64
	// FirstMismatch records the first oracle rejection, if any.
	FirstMismatch error
	// FirstError records the first lookup error, if any — the detail a
	// fully-failed run reports instead of a vacuous latency summary.
	FirstError error
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Latency is the client-side per-lookup latency distribution,
	// recorded into the shared obs histogram type (every lookup timed,
	// successful or not).
	Latency *obs.Histogram
}

// LatencySummary is the quantile view of a run's latency histogram.
type LatencySummary struct {
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
}

// Summary is the machine-readable digest of a run, shaped for CI and
// for BENCH_*.json artefacts: counts, throughput and client-side
// latency percentiles from the shared histogram type.
type Summary struct {
	Lookups        int64          `json:"lookups"`
	Errors         int64          `json:"errors"`
	Mismatches     int64          `json:"mismatches"`
	Swaps          int64          `json:"swaps"`
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	LookupsPerSec  float64        `json:"lookups_per_sec"`
	Latency        LatencySummary `json:"latency"`
}

// Summary condenses the run for machine consumption.
func (r *Result) Summary() Summary {
	s := Summary{
		Lookups:        r.Lookups,
		Errors:         r.Errors,
		Mismatches:     r.Mismatches,
		Swaps:          r.Swaps,
		ElapsedSeconds: r.Elapsed.Seconds(),
		Latency: LatencySummary{
			P50Seconds:  r.Latency.Quantile(0.50).Seconds(),
			P90Seconds:  r.Latency.Quantile(0.90).Seconds(),
			P99Seconds:  r.Latency.Quantile(0.99).Seconds(),
			MaxSeconds:  r.Latency.Max().Seconds(),
			MeanSeconds: r.Latency.Mean().Seconds(),
		},
	}
	if r.Elapsed > 0 {
		s.LookupsPerSec = float64(r.Lookups) / r.Elapsed.Seconds()
	}
	return s
}

// WriteJSON writes the run summary as indented JSON — the loadgen
// command's stdout contract.
func (r *Result) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Summary(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Run executes the configured load. It returns once every client has
// met its request minimum and the swapper (if any) has completed.
func Run(cfg Config) Result {
	if cfg.Clients <= 0 {
		cfg.Clients = 16
	}
	if cfg.RequestsPerClient <= 0 {
		cfg.RequestsPerClient = 500
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.3
	}
	if cfg.SwapInterval <= 0 {
		cfg.SwapInterval = 500 * time.Microsecond
	}
	if len(cfg.Hosts) == 0 || cfg.Lookup == nil {
		panic("loadgen: Hosts and Lookup are required")
	}

	res := Result{Latency: obs.NewHistogram(nil)}
	var mismatchOnce, errOnce sync.Once
	start := time.Now()

	// The swapper signals completion; clients keep the service under
	// load until it is done, past their own request minimum.
	swapsDone := make(chan struct{})
	if cfg.Swap != nil && cfg.Swaps > 0 {
		go func() {
			defer close(swapsDone)
			for i := 0; i < cfg.Swaps; i++ {
				if err := cfg.Swap(i); err == nil {
					atomic.AddInt64(&res.Swaps, 1)
				}
				time.Sleep(cfg.SwapInterval)
			}
		}()
	} else {
		close(swapsDone)
	}

	swapping := func() bool {
		select {
		case <-swapsDone:
			return false
		default:
			return true
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Hosts)-1))
			for i := 0; i < cfg.RequestsPerClient || swapping(); i++ {
				host := cfg.Hosts[zipf.Uint64()]
				t0 := time.Now()
				a, err := cfg.Lookup(host)
				res.Latency.Observe(time.Since(t0))
				atomic.AddInt64(&res.Lookups, 1)
				if err != nil {
					atomic.AddInt64(&res.Errors, 1)
					errOnce.Do(func() { res.FirstError = err })
					continue
				}
				if cfg.Verify != nil {
					if verr := cfg.Verify(a); verr != nil {
						atomic.AddInt64(&res.Mismatches, 1)
						mismatchOnce.Do(func() { res.FirstMismatch = verr })
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// Hostnames synthesises a deterministic host pool from a list's rules:
// for each sampled rule it emits the bare suffix plus one- and
// two-label registrable names under it, so the mix exercises implicit,
// normal, wildcard and exception paths. Wildcard markers become a
// literal label, exceptions are queried as written.
func Hostnames(l *psl.List, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	rules := l.Rules()
	subs := []string{"www", "api", "cdn", "app", "mail", "shop", "dev", "m"}
	out := make([]string, 0, n)
	for len(out) < n {
		r := rules[rng.Intn(len(rules))]
		base := r.Suffix
		if r.Wildcard {
			base = subs[rng.Intn(len(subs))] + "." + base
		}
		switch rng.Intn(4) {
		case 0:
			out = append(out, base)
		case 1:
			out = append(out, fmt.Sprintf("site%d.%s", rng.Intn(1000), base))
		default:
			out = append(out, fmt.Sprintf("%s.site%d.%s", subs[rng.Intn(len(subs))], rng.Intn(1000), base))
		}
	}
	return out
}

// HTTPLookup adapts a running server's /v1/lookup endpoint to a
// LookupFunc. Non-200 statuses are reported as errors.
func HTTPLookup(baseURL string, client *http.Client) LookupFunc {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return func(host string) (serve.Answer, error) {
		resp, err := client.Get(baseURL + serve.LookupPath + "?host=" + url.QueryEscape(host))
		if err != nil {
			return serve.Answer{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			return serve.Answer{}, fmt.Errorf("loadgen: lookup(%q) returned %s", host, resp.Status)
		}
		var a serve.Answer
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			return serve.Answer{}, err
		}
		return a, nil
	}
}
