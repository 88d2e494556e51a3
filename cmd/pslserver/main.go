// Command pslserver publishes the simulated public-suffix-list history
// over HTTP, standing in for publicsuffix.org in the examples and in
// update-strategy experiments, and mounts the production query API of
// internal/serve next to the raw-list endpoints. It also speaks the
// internal/dist snapshot-distribution protocol on both sides: every
// server is an origin (the /dist/ endpoints are always mounted), and
// with -follow it runs as a replica instead, bootstrapping its list
// from another pslserver and hot-swapping each verified delta into the
// query API with zero downtime.
//
//	GET /list/public_suffix_list.dat   the configured current version
//	GET /v/<seq>                       a specific historical version
//	GET /v1/lookup?host=H[&version=N]  eTLD / eTLD+1 JSON answer
//	POST /v1/batch                     batched lookups, one snapshot per
//	                                   batch (NDJSON or binary framing)
//	GET /v1/version                    current list version metadata
//	GET /healthz                       liveness, cache and admission stats
//	GET /metrics                       Prometheus text exposition
//	GET /dist/manifest                 origin head descriptor (JSON)
//	GET /dist/full/S                   full snapshot blob of version S
//	GET /dist/patch/F/T                binary delta taking F to T
//
// With -submit the list-maintenance write path is mounted too (origin
// mode only):
//
//	POST /v1/submit                    submit a rule change; the staged
//	                                   pipeline (lint, semantic,
//	                                   authorization, risk, publish)
//	                                   answers with the full verdict
//	                                   trail
//	GET /v1/submission/{id}            one submission record
//	GET /debug/submissions             store summary for pslobs
//	GET/POST /debug/dns                the simulated _psl DNS zone;
//	                                   submitters plant their TXT
//	                                   records here (psltool authorize)
//
// Flags:
//
//	-addr HOST:PORT   listen address (default 127.0.0.1:8353)
//	-age DAYS         publish the version in effect DAYS before
//	                  2022-12-08 (default 0 = newest)
//	-failrate F       fail this fraction of raw-list requests with 503,
//	                  to exercise client fallback paths
//	-seed N           history generator seed
//	-versions N       number of history versions to generate (default
//	                  1142, the full simulated history)
//	-max-in-flight N  admission bound for /v1/lookup (503 above it)
//	-follow URL       run as a replica of the origin pslserver at URL:
//	                  no local history; the list arrives via /dist/
//	-follow-from N    first version to bootstrap from (-1 = origin head)
//	-follow-poll D    replica poll interval (default 1s)
//	-blob             (follower) feed the query API from the origin's
//	                  compiled matcher blobs (/dist/blob/{seq}): each
//	                  verified snapshot installs the origin-compiled
//	                  PackedMatcher instead of recompiling locally;
//	                  blob fetch failures silently fall back to a local
//	                  compile
//	-state-dir DIR    (follower) persist each verified snapshot to DIR
//	                  and resume from it on restart, skipping the
//	                  full-blob bootstrap
//	-relay            (follower) re-serve the /dist/ protocol downstream
//	                  from the verified snapshots this replica installs,
//	                  making the instance a mid-tier fan-out point;
//	                  multi-step patch requests are answered with one
//	                  compacted delta
//	-retain N         (relay) verified snapshots kept in the downstream
//	                  serving window (default 64)
//	-max-lag N        /healthz answers 503 while replication lag
//	                  exceeds N versions (0 = disabled)
//	-max-snapshot-age D  /healthz answers 503 while the served snapshot
//	                  is older than D (0 = disabled)
//	-request-timeout D   server-side bound on any request's context;
//	                  callers can only shrink it via the propagated
//	                  X-Request-Deadline-Ms header (default 30s,
//	                  0 = header-only)
//	-debug-addr ADDR  also serve net/http/pprof and /metrics on this
//	                  address (default off); keep it loopback-only
//	-submit           mount the write path (origin mode only)
//	-submit-state-dir DIR  persist submission records to DIR and restore
//	                  them on restart
//	-submit-scale F   generate a simulated web population at scale F for
//	                  the risk stage (0 = score synthetic probes only)
//	-submit-max-flip F  reject submissions that flip more than this
//	                  fraction of the population's registrable domains
//	                  (default 0.05)
//	-failpoints SPEC  arm deterministic fault-injection sites for the
//	                  whole process, seeded from -seed (e.g.
//	                  'dist.state.rename=err(1);submit.persist.sync=crash(0.2,seed=7)');
//	                  err terms surface as the named syscall failing,
//	                  crash terms abort the process at the site — the
//	                  supervisor-restart experiment. Armed or not, every
//	                  site exports psl_failpoint_triggers_total{name}
//	-quiet            suppress JSON access logs on stderr
//
// In follower mode /healthz and /v1/version report "source":"follower"
// plus the live lag_seqs behind the origin; a caught-up follower shows
// lag_seqs 0. With -max-lag / -max-snapshot-age armed, /healthz turns
// into a real readiness probe: it answers 503 with the violated limits
// in the body while the instance would serve stale data.
//
// Every route runs behind the resilience middleware: handler panics
// become 500s (counted in psl_http_panics_total) instead of dead
// connections, and each request's context carries a deadline — the
// smaller of -request-timeout and the client's propagated budget. Both
// listeners get full slow-client protection (read/write/idle timeouts
// and a header-size cap).
//
// Requests are logged as one JSON line each on stderr, carrying the
// request ID the server minted (or honoured, if the client sent
// X-Request-Id) and per-stage timings.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/dnssim"
	"repro/internal/experiments"
	"repro/internal/failpoint"
	"repro/internal/fetch"
	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/obs"
	"repro/internal/psl"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/submit"
)

// config is the fully validated flag set; parseFlags fails before any
// listener is bound or history generated, so a bad invocation exits
// without side effects.
type config struct {
	addr        string
	debugAddr   string
	age         int
	failRate    float64
	seed        int64
	versions    int
	maxInFlight int
	quiet       bool

	follow     string
	followFrom int
	followPoll time.Duration
	blob       bool
	stateDir   string
	relay      bool
	retain     int

	maxLag         int64
	maxSnapshotAge time.Duration
	requestTimeout time.Duration

	submit         bool
	submitStateDir string
	submitScale    float64
	submitMaxFlip  float64

	failpoints string
}

// parseFlags parses and validates the command line. All validation
// errors surface here, never as a crash after the socket is open.
func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("pslserver", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8353", "listen address")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "serve pprof and /metrics on this extra address (off when empty)")
	fs.IntVar(&cfg.age, "age", 0, "publish the version this many days before 2022-12-08")
	fs.Float64Var(&cfg.failRate, "failrate", 0, "fraction of raw-list requests to fail with 503")
	fs.Int64Var(&cfg.seed, "seed", history.DefaultSeed, "history generator seed")
	fs.IntVar(&cfg.versions, "versions", 0, "history versions to generate (0 = full default history)")
	fs.IntVar(&cfg.maxInFlight, "max-in-flight", serve.DefaultMaxInFlight, "admission bound for /v1/lookup")
	fs.StringVar(&cfg.follow, "follow", "", "run as a replica of the origin pslserver at this base URL")
	fs.IntVar(&cfg.followFrom, "follow-from", -1, "first version to bootstrap from (-1 = origin head)")
	fs.DurationVar(&cfg.followPoll, "follow-poll", time.Second, "replica poll interval")
	fs.BoolVar(&cfg.blob, "blob", false, "feed the query API from the origin's compiled matcher blobs (requires -follow)")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "persist verified follower snapshots here and resume from them on restart")
	fs.BoolVar(&cfg.relay, "relay", false, "re-serve the /dist/ protocol downstream of the followed origin (requires -follow)")
	fs.IntVar(&cfg.retain, "retain", 0, "verified snapshots a relay keeps for downstream serving (0 = default 64; requires -relay)")
	fs.Int64Var(&cfg.maxLag, "max-lag", 0, "healthz answers 503 above this replication lag in versions (0 = disabled)")
	fs.DurationVar(&cfg.maxSnapshotAge, "max-snapshot-age", 0, "healthz answers 503 above this snapshot age (0 = disabled)")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", 30*time.Second, "server-side request deadline (0 = propagated header only)")
	fs.BoolVar(&cfg.submit, "submit", false, "mount the list-maintenance write path (/v1/submit; origin mode only)")
	fs.StringVar(&cfg.submitStateDir, "submit-state-dir", "", "persist submission records here (requires -submit)")
	fs.Float64Var(&cfg.submitScale, "submit-scale", 0, "web-population scale for submission risk scoring (0 = probes only; requires -submit)")
	fs.Float64Var(&cfg.submitMaxFlip, "submit-max-flip", 0, "reject submissions flipping more than this fraction of the population (0 = default 0.05; requires -submit)")
	fs.StringVar(&cfg.failpoints, "failpoints", "", "deterministic fault-injection spec (name=err(p,...);name=crash(p,...)), seeded from -seed")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress JSON access logs")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.failRate < 0 || cfg.failRate > 1 {
		return config{}, fmt.Errorf("-failrate %v out of range [0, 1]", cfg.failRate)
	}
	if cfg.age < 0 {
		return config{}, fmt.Errorf("-age %d is negative", cfg.age)
	}
	if cfg.maxInFlight < 1 {
		return config{}, fmt.Errorf("-max-in-flight %d must be at least 1", cfg.maxInFlight)
	}
	if cfg.addr == "" {
		return config{}, fmt.Errorf("-addr must not be empty")
	}
	if cfg.versions != 0 && cfg.versions < 2 {
		return config{}, fmt.Errorf("-versions %d must be at least 2 (or 0 for the full history)", cfg.versions)
	}
	if cfg.followPoll <= 0 {
		return config{}, fmt.Errorf("-follow-poll %v must be positive", cfg.followPoll)
	}
	if cfg.followFrom < -1 {
		return config{}, fmt.Errorf("-follow-from %d must be -1 (head) or a version seq", cfg.followFrom)
	}
	if cfg.follow == "" && cfg.followFrom != -1 {
		return config{}, fmt.Errorf("-follow-from requires -follow")
	}
	if cfg.follow == "" && cfg.stateDir != "" {
		return config{}, fmt.Errorf("-state-dir requires -follow (origins own their history)")
	}
	if cfg.blob && cfg.follow == "" {
		return config{}, fmt.Errorf("-blob requires -follow (origins compile their own matchers)")
	}
	if cfg.relay && cfg.follow == "" {
		return config{}, fmt.Errorf("-relay requires -follow (an origin already serves /dist/)")
	}
	if cfg.retain != 0 && !cfg.relay {
		return config{}, fmt.Errorf("-retain requires -relay")
	}
	if cfg.retain < 0 {
		return config{}, fmt.Errorf("-retain %d is negative", cfg.retain)
	}
	if cfg.follow == "" && cfg.maxLag != 0 {
		return config{}, fmt.Errorf("-max-lag requires -follow (an origin never lags itself)")
	}
	if cfg.maxLag < 0 {
		return config{}, fmt.Errorf("-max-lag %d is negative", cfg.maxLag)
	}
	if cfg.maxSnapshotAge < 0 {
		return config{}, fmt.Errorf("-max-snapshot-age %v is negative", cfg.maxSnapshotAge)
	}
	if cfg.requestTimeout < 0 {
		return config{}, fmt.Errorf("-request-timeout %v is negative", cfg.requestTimeout)
	}
	if cfg.submit && cfg.follow != "" {
		return config{}, fmt.Errorf("-submit requires origin mode (followers replicate, they do not accept changes)")
	}
	if !cfg.submit {
		if cfg.submitStateDir != "" {
			return config{}, fmt.Errorf("-submit-state-dir requires -submit")
		}
		if cfg.submitScale != 0 {
			return config{}, fmt.Errorf("-submit-scale requires -submit")
		}
		if cfg.submitMaxFlip != 0 {
			return config{}, fmt.Errorf("-submit-max-flip requires -submit")
		}
	}
	if cfg.submitScale < 0 {
		return config{}, fmt.Errorf("-submit-scale %v is negative", cfg.submitScale)
	}
	if cfg.submitMaxFlip < 0 || cfg.submitMaxFlip > 1 {
		return config{}, fmt.Errorf("-submit-max-flip %v out of range [0, 1]", cfg.submitMaxFlip)
	}
	if _, err := failpoint.Parse(cfg.failpoints); err != nil {
		return config{}, fmt.Errorf("-failpoints: %w", err)
	}
	return cfg, nil
}

// obsPlane bundles one node's propagation-observability state: the
// completed-trace ring behind /debug/traces, the per-seq lifecycle
// journal behind /debug/propagation, and the runtime telemetry
// families. One plane per process, whatever the serving mode.
type obsPlane struct {
	ring    *obs.TraceRing
	journal *obs.Journal
}

// newObsPlane builds the plane for one node tier ("origin", "relay", or
// "edge" — the journal's tier label).
func newObsPlane(tier string) *obsPlane {
	return &obsPlane{
		ring:    obs.NewTraceRing(0, 0),
		journal: obs.NewJournal(tier, 0),
	}
}

// mount registers the plane's metric families (trace ring, propagation
// histograms, runtime telemetry) on reg and its debug endpoints on mux.
func (p *obsPlane) mount(mux *http.ServeMux, reg *obs.Registry) {
	p.ring.RegisterMetrics(reg)
	p.journal.RegisterMetrics(reg)
	obs.RegisterRuntimeMetrics(reg)
	failpoint.RegisterMetrics(reg)
	mux.Handle(obs.TracesPath, p.ring.Handler())
	mux.Handle(obs.PropagationPath, p.journal.Handler())
}

// registerProcessMetrics adds the process-level gauges shared by both
// serving modes.
func registerProcessMetrics(reg *obs.Registry) {
	start := time.Now()
	reg.MustRegister("psl_process_uptime_seconds", "Seconds since the server process assembled its handler.", nil,
		obs.GaugeFunc(func() float64 { return time.Since(start).Seconds() }))
	reg.MustRegister("psl_process_goroutines", "Live goroutines in the server process.", nil,
		obs.GaugeFunc(func() float64 { return float64(runtime.NumGoroutine()) }))
}

// resilient wraps a mux in the shared HTTP middleware — panic recovery
// outermost, then per-request deadlines — and registers the middleware
// counters, so every route of every listener reports through the same
// two families.
func resilient(mux http.Handler, cfg config, reg *obs.Registry) http.Handler {
	hm := &resilience.HTTPMetrics{}
	hm.Register(reg)
	return resilience.Recover(&hm.Panics,
		resilience.Deadline(cfg.requestTimeout, &hm.DeadlineExceeded, mux))
}

// newHandler assembles the combined origin handler: the query API owns
// its three routes, /dist/ serves the distribution protocol, /metrics
// exposes the shared registry, and the raw-list server owns everything
// else — all behind the resilience middleware. The returned service,
// list server, origin and registry are exposed for tests and runtime
// reconfiguration.
func newHandler(h *history.History, seq int, cfg config, plane *obsPlane) (http.Handler, *serve.Service, *fetch.Server, *dist.Origin, *obs.Registry) {
	fs := fetch.NewServer(h)
	fs.SetCurrent(seq)
	fs.SetFailureRate(cfg.failRate)

	svc := serve.NewFromHistory(h, seq, serve.Options{MaxInFlight: cfg.maxInFlight})
	svc.SetHealthLimits(cfg.maxLag, cfg.maxSnapshotAge)
	svc.SetJournal(plane.journal)

	origin := dist.NewOrigin(h)
	origin.SetHead(seq)
	origin.SetJournal(plane.journal)

	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	fs.RegisterMetrics(reg)
	origin.RegisterMetrics(reg)
	experiments.RegisterSweepMetrics(reg)
	registerProcessMetrics(reg)

	mux := http.NewServeMux()
	mux.Handle(serve.LookupPath, svc)
	mux.Handle(serve.BatchPath, svc)
	mux.Handle(serve.VersionPath, svc)
	mux.Handle(serve.HealthPath, svc)
	mux.Handle(serve.MetricsPath, reg.Handler())
	mux.Handle(dist.Prefix, origin)
	mux.Handle("/", fs)
	plane.mount(mux, reg)

	if cfg.submit {
		// The write path: a simulated _psl DNS zone (records planted via
		// POST /debug/dns, the stand-in for real-world DNS control) and
		// the staged submission pipeline. A published submission swaps
		// the query API and raw-list tier to the new version in-process,
		// and the /dist/ endpoints replicate it to followers.
		zone := dnssim.NewZone()
		var pop *httparchive.Snapshot
		if cfg.submitScale > 0 {
			pop = httparchive.Generate(httparchive.Config{Seed: cfg.seed, Scale: cfg.submitScale}, h)
		}
		pipe, err := submit.New(origin, submit.Config{
			StateDir:        cfg.submitStateDir,
			Resolver:        zone,
			Population:      pop,
			MaxFlipFraction: cfg.submitMaxFlip,
			OnPublish: func(m dist.Manifest, l *psl.List) {
				svc.SwapVerified(l, m.Seq, m.Fingerprint, nil)
				fs.SetCurrent(m.Seq)
			},
		})
		if err != nil {
			// Only a corrupt -submit-state-dir can fail here; the process
			// has not bound a socket yet, so fail loudly.
			log.Fatalf("pslserver: submit pipeline: %v", err)
		}
		pipe.RegisterMetrics(reg)
		pipe.Register(mux)
		mux.Handle("/debug/dns", zone.Handler())
	}
	return resilient(mux, cfg, reg), svc, fs, origin, reg
}

// newFollowerHandler assembles the replica-mode handler: the query API
// serves the bootstrapped list (no local history, so no raw-list
// endpoints and no versioned lookups), tagged as a follower with a live
// lag probe, and /metrics carries the replica's families. With a
// non-nil relay the /dist/ endpoints come back — served from the
// relay's verified snapshot window rather than a local history — and
// the instance reports as source "relay". fp is the verified rules
// fingerprint of the bootstrap snapshot; m, when non-nil, is a
// pre-built matcher (the blob-fed path) installed without compiling.
func newFollowerHandler(l *psl.List, seq int, fp string, m psl.Matcher, rep *dist.Replica, rl *dist.Relay, cfg config, plane *obsPlane) (http.Handler, *serve.Service, *obs.Registry) {
	svc := serve.NewWith(l, seq, fp, m, serve.Options{MaxInFlight: cfg.maxInFlight})
	source := "follower"
	if rl != nil {
		source = "relay"
	}
	svc.SetSource(source, rep.Lag)
	svc.SetHealthLimits(cfg.maxLag, cfg.maxSnapshotAge)
	svc.SetJournal(plane.journal)

	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	rep.RegisterMetrics(reg)
	if rl != nil {
		rl.RegisterMetrics(reg)
	}
	registerProcessMetrics(reg)

	mux := http.NewServeMux()
	mux.Handle(serve.LookupPath, svc)
	mux.Handle(serve.BatchPath, svc)
	mux.Handle(serve.VersionPath, svc)
	mux.Handle(serve.HealthPath, svc)
	mux.Handle(serve.MetricsPath, reg.Handler())
	if rl != nil {
		mux.Handle(dist.Prefix, rl)
	}
	plane.mount(mux, reg)
	return resilient(mux, cfg, reg), svc, reg
}

// debugHandler builds the opt-in diagnostics mux: the full pprof suite
// plus a second /metrics mount, kept off the public listener.
func debugHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle(serve.MetricsPath, reg.Handler())
	return mux
}

// bootstrapFollower fetches the initial snapshot from the origin,
// retrying until it succeeds or ctx is cancelled; a replica is allowed
// to start before (or outlive a restart of) its origin.
func bootstrapFollower(ctx context.Context, rep *dist.Replica, cfg config, stdout io.Writer) (*psl.List, int, error) {
	for attempt := 1; ; attempt++ {
		l, seq, err := rep.Bootstrap(ctx, cfg.followFrom)
		if err == nil {
			return l, seq, nil
		}
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		if attempt == 1 || attempt%10 == 0 {
			fmt.Fprintf(stdout, "pslserver: bootstrap from %s failed (attempt %d): %v\n", cfg.follow, attempt, err)
		}
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(cfg.followPoll):
		}
	}
}

// run binds the listeners and serves until ctx is cancelled. The
// announce line on stdout carries the bound addresses (meaningful when
// -addr ends in :0), which is what the tests and the CI scrape step
// parse.
func run(ctx context.Context, cfg config, stdout io.Writer) error {
	// Fault sites arm before any component is built or listener bound,
	// so the very first durable write of the process already runs under
	// the spec; parseFlags validated it, so Arm cannot fail here.
	if cfg.failpoints != "" {
		if err := failpoint.Arm(cfg.failpoints, cfg.seed); err != nil {
			return fmt.Errorf("failpoints: %w", err)
		}
		defer failpoint.DisarmAll()
		fmt.Fprintf(stdout, "pslserver: failpoints armed: %s (seed %d)\n", cfg.failpoints, cfg.seed)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	var debugLn net.Listener
	if cfg.debugAddr != "" {
		debugLn, err = net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return err
		}
		defer debugLn.Close()
	}

	var handler http.Handler
	var reg *obs.Registry
	var plane *obsPlane
	if cfg.follow != "" {
		tier := "edge"
		if cfg.relay {
			tier = "relay"
		}
		plane = newObsPlane(tier)
		rep := dist.NewReplica(cfg.follow, dist.ReplicaOptions{
			PollInterval:   cfg.followPoll,
			RequestTimeout: cfg.requestTimeout,
			StateDir:       cfg.stateDir,
			FetchBlobs:     cfg.blob,
			Ring:           plane.ring,
			Journal:        plane.journal,
		})
		// The relay claims the replica's OnVerified hook, so it must be
		// built before Bootstrap runs — the bootstrap snapshot is the
		// relay's first servable window entry.
		var rl *dist.Relay
		if cfg.relay {
			rl = dist.NewRelay(rep, dist.RelayOptions{Retain: cfg.retain})
		}
		// A persisted snapshot beats a full-blob bootstrap: the restored
		// state is checksum- and fingerprint-verified, and the poll loop
		// patches forward from it. Any restore failure (first boot,
		// corrupt file) falls back to bootstrapping from the origin.
		var l *psl.List
		var seq int
		restored := false
		if cfg.stateDir != "" {
			if sl, rseq, rerr := rep.RestoreState(); rerr == nil {
				l, seq, restored = sl, rseq, true
				fmt.Fprintf(stdout, "pslserver: restored v%04d from %s\n", rseq, cfg.stateDir)
			} else if !os.IsNotExist(rerr) {
				fmt.Fprintf(stdout, "pslserver: state restore failed (%v), bootstrapping from origin\n", rerr)
			}
		}
		if !restored {
			l, seq, err = bootstrapFollower(ctx, rep, cfg, stdout)
			if err != nil {
				return err
			}
		} else if rl != nil {
			// RestoreState bypasses the verified-install path, so the
			// relay window is seeded explicitly from the trusted local
			// snapshot.
			rl.Seed(l, seq)
		}
		// The blob-fed fast path: reuse the persisted matcher blob (a
		// restart pays zero compiles), else fetch the origin-compiled
		// blob for the bootstrap snapshot. Both are verified against the
		// snapshot's own fingerprint; any failure just means the service
		// compiles once locally, exactly as without -blob.
		fp := l.Fingerprint()
		var matcher psl.Matcher
		if cfg.blob {
			if restored && cfg.stateDir != "" {
				if pm, lerr := dist.LoadMatcherBlob(cfg.stateDir, seq, fp); lerr == nil {
					matcher = pm
					fmt.Fprintf(stdout, "pslserver: reusing persisted matcher blob for v%04d (zero compiles)\n", seq)
				}
			}
			if matcher == nil {
				if pm := rep.FetchMatcherBlob(ctx, seq, fp); pm != nil {
					matcher = pm
					fmt.Fprintf(stdout, "pslserver: bootstrap matcher fed from /dist/blob/%d (zero compiles)\n", seq)
				}
			}
		}
		var svc *serve.Service
		handler, svc, reg = newFollowerHandler(l, seq, fp, matcher, rep, rl, cfg, plane)
		// Installs flow through SwapVerified so a hop whose rules are
		// byte-identical to the installed snapshot (fingerprint match)
		// reuses the live matcher instead of recompiling, and a hop that
		// arrived with a verified blob matcher installs it directly.
		rep.OnInstall = func(l *psl.List, seq int, fp string, m psl.Matcher) { svc.SwapVerified(l, seq, fp, m) }

		// The poll loop gets its own context so shutdown can drain it
		// deterministically: cancel, then wait for Run to return before
		// run() itself returns — no goroutine outlives the command.
		fctx, fcancel := context.WithCancel(ctx)
		var followerWG sync.WaitGroup
		followerWG.Add(1)
		go func() {
			defer followerWG.Done()
			rep.Run(fctx)
		}()
		defer func() {
			fcancel()
			followerWG.Wait()
		}()

		mode := "following"
		if cfg.relay {
			mode = "relaying"
		}
		fmt.Fprintf(stdout, "pslserver: %s %s from v%04d (%d rules) on http://%s, query API at %s, metrics at %s\n",
			mode, cfg.follow, seq, l.Len(), ln.Addr(), serve.LookupPath, serve.MetricsPath)
	} else {
		h := history.Generate(history.Config{Seed: cfg.seed, Versions: cfg.versions})
		seq := h.IndexForAge(cfg.age)
		plane = newObsPlane("origin")
		handler, _, _, _, reg = newHandler(h, seq, cfg, plane)

		meta := h.Meta(seq)
		fmt.Fprintf(stdout, "pslserver: serving v%04d (%s, %d rules) on http://%s%s (failrate %.2f), query API at %s, metrics at %s\n",
			meta.Seq, meta.Date.Format("2006-01-02"), meta.Rules, ln.Addr(), fetch.ListPath, cfg.failRate, serve.LookupPath, serve.MetricsPath)
	}

	var logger *slog.Logger
	if !cfg.quiet {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	handler = obs.AccessLogTo(logger, plane.ring, handler)

	errc := make(chan error, 2)
	srv := resilience.HardenServer(&http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second})
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() { errc <- serve.ServeListener(sctx, srv, ln, 10*time.Second) }()

	if debugLn != nil {
		fmt.Fprintf(stdout, "pslserver: debug endpoints (pprof, metrics) on http://%s/debug/pprof/\n", debugLn.Addr())
		dsrv := resilience.HardenServer(&http.Server{Handler: debugHandler(reg), ReadHeaderTimeout: 10 * time.Second})
		go func() { errc <- serve.ServeListener(sctx, dsrv, debugLn, 10*time.Second) }()
	}

	// First exit wins: a debug-listener failure tears down the main
	// server and vice versa, so the process never half-runs.
	err = <-errc
	cancel()
	if debugLn != nil {
		if err2 := <-errc; err == nil {
			err = err2
		}
	}
	return err
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		log.Fatalf("pslserver: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
