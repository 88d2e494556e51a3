// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the system end to end and prints every end-to-end
// metric (or, with -trace 1, every per-layer metric) as the last line
// of its output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":…,"unit":"ms"},…}}
//
// Workloads: lookup and crawl-batch drive a fresh pslserver child over
// loopback TCP; publish and analysis call the write path and the
// analysis pipeline in-process. See BENCHMARK.md beside this file.
//
// Usage (from the repository root, after building pslserver):
//
//	perfbench -workload lookup -seed 1 -seconds 20 -trace 0 -server .bench_build/bin/pslserver
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	records   string
	commit    string
	root      string
}

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// e2eMetrics is what every untraced run prints, in order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// outcome is the result of one run.
type outcome struct {
	attempted, failed int64
	firstErr          error
	metrics           []metric
	inputDigest       string
	extra             map[string]any // run-record detail: counters, sample counts, largest layer
	steal             []float64      // host steal share per op or window
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) note(k string, v any) {
	if o.extra == nil {
		o.extra = make(map[string]any)
	}
	o.extra[k] = v
}

// fail folds a phase's failures into the outcome, keeping the first error.
func (o *outcome) fail(attempted, failed int64, err error) {
	o.attempted += attempted
	o.failed += failed
	if o.firstErr == nil && err != nil {
		o.firstErr = err
	}
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"lookup":      func(ctx context.Context, o options) (*outcome, error) { return runServing(ctx, o, false) },
	"crawl-batch": func(ctx context.Context, o options) (*outcome, error) { return runServing(ctx, o, true) },
	"publish":     runPublish,
	"analysis":    runAnalysis,
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: lookup, crawl-batch, publish or analysis")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prices every layer instead of reporting end-to-end metrics")
	fs.StringVar(&o.serverBin, "server", "", "path to a built pslserver binary (serving workloads)")
	fs.StringVar(&o.records, "records", "", "append the run record to this JSON-lines file (empty: none)")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the binaries were built from")
	fs.StringVar(&o.root, "root", ".", "repository checkout whose sources the run record digests")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q (want lookup, crawl-batch, publish or analysis)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds %d must be at least 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace %d must be 0 or 1", trace)
	}
	o.trace = trace == 1
	if o.serverBin == "" {
		return o, errors.New("-server is required: every traced run and both serving workloads start pslserver")
	}
	return o, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// One process, at most as many threads running Go code as the host
	// has CPUs; the server child gets the same default.
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := workloads[o.workload](ctx, o)
	stopAllServers()
	interrupted := ctx.Err() != nil
	stop()
	if interrupted {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", res.failed, res.attempted, res.firstErr)
		os.Exit(1)
	}
}

// runRecord states what ran where, so two results can be shown to come
// from the same inputs on the same kind of host.
type runRecord struct {
	Time         string         `json:"time"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        bool           `json:"trace"`
	NumCPU       int            `json:"num_cpu"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
	InputDigest  string         `json:"input_digest"`
	Attempted    int64          `json:"attempted"`
	Failed       int64          `json:"failed"`
	Metrics      map[string]any `json:"metrics"`
	Detail       map[string]any `json:"detail,omitempty"`
}

// report prints a human table, the run record, and last the result
// line; it also appends the record to the records file.
func report(w io.Writer, o options, res *outcome) error {
	want := e2eMetrics
	if o.trace {
		want = layerMetrics
	}
	if len(res.metrics) != len(want) {
		return fmt.Errorf("run produced %d metrics, want %d", len(res.metrics), len(want))
	}
	for i, m := range res.metrics {
		if m.Name != want[i].name || m.Unit != want[i].unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %d is %s %s = %v, want a number for %s %s", i, m.Name, m.Unit, m.Value, want[i].name, want[i].unit)
		}
	}
	rec := runRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Workload: o.workload, Seed: o.seed,
		Seconds: o.seconds, Trace: o.trace, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: o.commit, SourceDigest: sourceDigest(o.root),
		InputDigest: res.inputDigest, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]any), Detail: res.extra,
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = val{m.Value, m.Unit}
		rec.Metrics[m.Name] = m.Value
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "run_record %s\n", recLine)
	if o.records != "" {
		if err := os.MkdirAll(filepath.Dir(o.records), 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(o.records, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(append(recLine, '\n'))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("records: %w", werr)
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}
