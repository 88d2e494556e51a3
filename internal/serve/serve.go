package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/psl"
)

// Options configures a Service. The zero value selects sane defaults.
type Options struct {
	// MaxInFlight bounds concurrently admitted /v1/lookup requests;
	// excess requests are rejected with 503 + Retry-After. <= 0 selects
	// DefaultMaxInFlight.
	MaxInFlight int
	// MaxBatch bounds the rows accepted by one /v1/batch request (a
	// whole batch costs a single admission ticket, so the row bound is
	// what keeps one client from monopolising the service). <= 0 selects
	// DefaultMaxBatch.
	MaxBatch int
	// CacheSize bounds the lookup cache (entries). <= 0 selects
	// DefaultCacheSize.
	CacheSize int
	// History, when set, enables versioned lookups (?version=N) and
	// SetVersion, serving any historical list version on demand.
	History *history.History
	// DisableMetrics turns off latency instrumentation (the lookup
	// counters stay on — they predate the metrics layer and are part of
	// CacheStats). Exists so BenchmarkServeLookupInstrumented can
	// measure the instrumentation overhead against a bare service;
	// production callers leave it false.
	DisableMetrics bool
}

// DefaultMaxInFlight is the default admission bound.
const DefaultMaxInFlight = 256

// DefaultMaxBatch is the default row bound of one /v1/batch request.
const DefaultMaxBatch = 8192

// versionCacheSize bounds how many historical snapshots are kept
// materialised for ?version=N lookups.
const versionCacheSize = 8

// hitSampleEvery is the cache-hit latency sampling period: one in every
// hitSampleEvery hits arms end-to-end timing for the following lookup.
// Cached hits run in ~100ns, so timing each one (two time.Now calls)
// would be a >30% tax; sampling rides the hit counter's existing atomic
// add (Counter.AddSampled), so it requires a power of two. Misses are
// always timed — the matcher walk dwarfs the clock reads.
const hitSampleEvery = 256

// timing is the latency instrumentation of the lookup path, nil when
// Options.DisableMetrics is set. Hits are sampled: every
// hitSampleEvery-th hit (per counter stripe) arms the flag, and the
// next lookup times itself end to end. The armed flag is read-mostly —
// its cache line stays shared between arming events — so the per-hit
// tax is one predictable branch, not a second contended atomic add.
type timing struct {
	armed atomic.Bool
	hit   *obs.Histogram
	miss  *obs.Histogram
	batch *obs.Histogram
}

// state is the unit of atomic swap: a snapshot and the cache built for
// it. Replacing both together means a cached answer can never outlive
// the snapshot that produced it — cache invalidation on swap is
// wholesale and race-free by construction.
type state struct {
	snap  *Snapshot
	cache *Cache
	// served flips once, on the first lookup this state answers — the
	// served_first lifecycle event. Living in the swapped state (not the
	// Service) means each installed version gets its own event for free.
	served atomic.Bool
}

// Service answers eTLD / eTLD+1 queries over HTTP against a
// hot-swappable list snapshot. The lookup read path is lock-free: one
// atomic load of the current state, a sharded cache probe, and (on
// miss) a matcher walk.
type Service struct {
	st   atomic.Pointer[state]
	opts Options

	// swap and lookup telemetry; survive snapshot swaps.
	gen       atomic.Uint64
	swapNanos atomic.Int64 // UnixNano of the last swap, for the age gauge
	hits      obs.Counter
	misses    obs.Counter
	errs      obs.Counter
	admitted  obs.Counter
	rejected  obs.Counter
	m         *timing

	// batch telemetry: requests by wire mode, rows by result, and
	// admission rejections. Rows are tallied on the stack during a batch
	// and flushed with one Add per counter, so the hot loop touches no
	// shared cache line (the per-row path above goes through the striped
	// counters once per request instead).
	batchNDJSON   obs.Counter
	batchBinary   obs.Counter
	batchRowHits  obs.Counter
	batchRowMiss  obs.Counter
	batchRowErrs  obs.Counter
	batchRejected obs.Counter

	// matcher install provenance: compile (buildSnapshot ran a full
	// compile), blob (a pre-built matcher was handed in, e.g. unpacked
	// from a dist blob), reuse (SwapVerified recognised an identical
	// fingerprint and kept the installed matcher).
	compileInstalls obs.Counter
	blobInstalls    obs.Counter
	reuseInstalls   obs.Counter

	// src describes where snapshots come from; nil means the default
	// local source (the service owns its list or history directly).
	src atomic.Pointer[srcInfo]

	// limits holds the operator health thresholds; nil means always
	// healthy (the default).
	limits atomic.Pointer[healthLimits]

	// journal, when set, receives the served_first lifecycle event for
	// each installed snapshot (see obs.Journal). nil disables it.
	journal atomic.Pointer[obs.Journal]

	// admission semaphore for /v1/lookup.
	tokens chan struct{}

	// bounded cache of materialised historical snapshots for
	// ?version=N lookups; each miss compiles one version.
	versionMu       sync.Mutex
	versionSnaps    map[int]*Snapshot
	versionOrder    []int
	compiles        obs.Counter
	compileDuration *obs.Histogram

	mux   http.Handler
	start time.Time
}

// New creates a service answering for the given list. seq identifies
// the version inside opts.History (-1 when the list is standalone).
func New(l *psl.List, seq int, opts Options) *Service {
	s := newService(opts)
	s.Swap(l, seq)
	return s
}

// NewWith creates a service whose initial snapshot carries a verified
// rules fingerprint and, optionally, a pre-built matcher — the blob-fed
// bootstrap path: a follower that fetched the compiled matcher blob
// hands it straight in and the service performs zero compiles. m == nil
// compiles as usual (still recording fp for later reuse).
func NewWith(l *psl.List, seq int, fp string, m psl.Matcher, opts Options) *Service {
	s := newService(opts)
	s.SwapVerified(l, seq, fp, m)
	return s
}

// newService builds a service with no snapshot installed yet; callers
// must install one before returning it.
func newService(opts Options) *Service {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	s := &Service{
		opts:            opts,
		tokens:          make(chan struct{}, opts.MaxInFlight),
		versionSnaps:    make(map[int]*Snapshot),
		compileDuration: obs.NewHistogram(nil),
		start:           time.Now(),
	}
	if !opts.DisableMetrics {
		s.m = &timing{
			hit:   obs.NewHistogram(nil),
			miss:  obs.NewHistogram(nil),
			batch: obs.NewHistogram(nil),
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc(LookupPath, s.handleLookup)
	mux.HandleFunc(BatchPath, s.handleBatch)
	mux.HandleFunc(VersionPath, s.handleVersion)
	mux.HandleFunc(HealthPath, s.handleHealth)
	s.mux = mux
	return s
}

// srcInfo names a snapshot source and how far it trails upstream.
type srcInfo struct {
	name string
	lag  func() int64
}

// SetSource declares where this service's snapshots come from —
// "local" (the default when never called) for a service that owns its
// list, "follower" for one fed by a dist replica — together with an
// optional lag probe reporting how many list versions the source
// currently trails its upstream. Both surface on /healthz and
// /v1/version so operators (and the CI smoke test) can tell a caught-up
// follower from a stale one.
func (s *Service) SetSource(name string, lag func() int64) {
	s.src.Store(&srcInfo{name: name, lag: lag})
}

// healthLimits are the operator thresholds behind /healthz readiness.
type healthLimits struct {
	maxLag int64
	maxAge time.Duration
}

// SetHealthLimits arms /healthz readiness checking: when the source lag
// exceeds maxLag versions, or the current snapshot is older than
// maxAge, the endpoint answers 503 with the violated limits spelled out
// in the body's reasons — so a load balancer stops routing to a stale
// follower instead of serving old answers silently. A zero (or
// negative) value disables that check; both zero restores the
// always-healthy default. Safe to call concurrently with traffic.
func (s *Service) SetHealthLimits(maxLag int64, maxAge time.Duration) {
	if maxLag <= 0 && maxAge <= 0 {
		s.limits.Store(nil)
		return
	}
	s.limits.Store(&healthLimits{maxLag: maxLag, maxAge: maxAge})
}

// healthReasons evaluates the armed limits, returning nil when healthy.
func (s *Service) healthReasons(lag int64, age time.Duration) []string {
	lim := s.limits.Load()
	if lim == nil {
		return nil
	}
	var reasons []string
	if lim.maxLag > 0 && lag > lim.maxLag {
		reasons = append(reasons, fmt.Sprintf("replication lag %d versions exceeds limit %d", lag, lim.maxLag))
	}
	if lim.maxAge > 0 && age > lim.maxAge {
		reasons = append(reasons, fmt.Sprintf("snapshot age %s exceeds limit %s", age.Round(time.Second), lim.maxAge))
	}
	return reasons
}

// sourceInfo resolves the current source name and lag.
func (s *Service) sourceInfo() (string, int64) {
	si := s.src.Load()
	if si == nil {
		return "local", 0
	}
	lag := int64(0)
	if si.lag != nil {
		lag = si.lag()
	}
	return si.name, lag
}

// NewFromHistory creates a service following the given history, serving
// version seq initially.
func NewFromHistory(h *history.History, seq int, opts Options) *Service {
	opts.History = h
	return New(h.ListAt(seq), seq, opts)
}

// RegisterMetrics attaches the service's metric families to a registry
// (DESIGN.md §10 naming): lookup counters and latency histograms
// labelled by result, swap/age/rules snapshot telemetry,
// cache occupancy, and admission-control counters and gauges. A service
// with a History also registers its versioned-lookup compile families.
func (s *Service) RegisterMetrics(r *obs.Registry) {
	r.MustRegister("psl_serve_lookups_total", "Lookups by result (hit/miss against the answer cache, error for invalid hosts).",
		obs.Labels{{"result", "hit"}}, &s.hits)
	r.MustRegister("psl_serve_lookups_total", "Lookups by result (hit/miss against the answer cache, error for invalid hosts).",
		obs.Labels{{"result", "miss"}}, &s.misses)
	r.MustRegister("psl_serve_lookups_total", "Lookups by result (hit/miss against the answer cache, error for invalid hosts).",
		obs.Labels{{"result", "error"}}, &s.errs)
	if s.m != nil {
		r.MustRegister("psl_serve_lookup_duration_seconds",
			fmt.Sprintf("Lookup latency by result; hits are sampled 1/%d, misses always timed.", hitSampleEvery),
			obs.Labels{{"result", "hit"}}, s.m.hit)
		r.MustRegister("psl_serve_lookup_duration_seconds",
			fmt.Sprintf("Lookup latency by result; hits are sampled 1/%d, misses always timed.", hitSampleEvery),
			obs.Labels{{"result", "miss"}}, s.m.miss)
	}
	r.MustRegister("psl_serve_swaps_total", "Snapshot swaps installed, including the initial one.", nil,
		obs.CounterFunc(func() float64 { return float64(s.gen.Load()) }))
	r.MustRegister("psl_serve_snapshot_age_seconds", "Seconds since the current snapshot was installed.", nil,
		obs.GaugeFunc(func() float64 { return time.Since(time.Unix(0, s.swapNanos.Load())).Seconds() }))
	r.MustRegister("psl_serve_snapshot_rules", "Rules in the currently served list version.", nil,
		obs.GaugeFunc(func() float64 { return float64(s.Current().List.Len()) }))
	r.MustRegister("psl_serve_cache_entries", "Entries in the current lookup cache.", nil,
		obs.GaugeFunc(func() float64 { return float64(s.st.Load().cache.Len()) }))
	r.MustRegister("psl_serve_cache_bytes", "Approximate resident bytes of the current lookup cache.", nil,
		obs.GaugeFunc(func() float64 { return float64(s.st.Load().cache.Bytes()) }))
	r.MustRegister("psl_serve_inflight_requests", "Admitted /v1/lookup requests currently in flight.", nil,
		obs.GaugeFunc(func() float64 { return float64(len(s.tokens)) }))
	r.MustRegister("psl_serve_admitted_total", "Requests admitted past the in-flight bound.", nil, &s.admitted)
	r.MustRegister("psl_serve_rejected_total", "Requests rejected with 503 by admission control.", nil, &s.rejected)
	r.MustRegister("psl_serve_batch_requests_total", "Batch requests by wire mode (ndjson or binary).",
		obs.Labels{{"mode", "ndjson"}}, &s.batchNDJSON)
	r.MustRegister("psl_serve_batch_requests_total", "Batch requests by wire mode (ndjson or binary).",
		obs.Labels{{"mode", "binary"}}, &s.batchBinary)
	r.MustRegister("psl_serve_batch_rows_total", "Batch rows answered, by result.",
		obs.Labels{{"result", "hit"}}, &s.batchRowHits)
	r.MustRegister("psl_serve_batch_rows_total", "Batch rows answered, by result.",
		obs.Labels{{"result", "miss"}}, &s.batchRowMiss)
	r.MustRegister("psl_serve_batch_rows_total", "Batch rows answered, by result.",
		obs.Labels{{"result", "error"}}, &s.batchRowErrs)
	r.MustRegister("psl_serve_batch_rejected_total", "Batch requests rejected with 503 by admission control.", nil, &s.batchRejected)
	if s.m != nil {
		r.MustRegister("psl_serve_batch_duration_seconds", "Whole-batch service time (one observation per batch request).",
			nil, s.m.batch)
	}
	r.MustRegister("psl_serve_matcher_installs_total", "Snapshot matcher installs by provenance (compile, blob, reuse).",
		obs.Labels{{"source", "compile"}}, &s.compileInstalls)
	r.MustRegister("psl_serve_matcher_installs_total", "Snapshot matcher installs by provenance (compile, blob, reuse).",
		obs.Labels{{"source", "blob"}}, &s.blobInstalls)
	r.MustRegister("psl_serve_matcher_installs_total", "Snapshot matcher installs by provenance (compile, blob, reuse).",
		obs.Labels{{"source", "reuse"}}, &s.reuseInstalls)
	if s.opts.History != nil {
		r.MustRegister("psl_compile_total", "List versions compiled into packed matchers.", nil, &s.compiles)
		r.MustRegister("psl_compile_duration_seconds", "Wall time to materialise and compile one list version.", nil, s.compileDuration)
		r.MustRegister("psl_compile_cache_entries", "Compiled versions currently retained.", nil,
			obs.GaugeFunc(func() float64 {
				s.versionMu.Lock()
				defer s.versionMu.Unlock()
				return float64(len(s.versionSnaps))
			}))
	}
}

// fpInstallBlob is the serving layer's injection site: armed, a
// blob-fed SwapVerified drops the pre-built matcher and compiles
// instead, proving the degrade path swaps correct data either way.
var fpInstallBlob = failpoint.New("serve.install.blob")

// install makes snap the current snapshot under a fresh generation,
// with a fresh cache.
func (s *Service) install(snap *Snapshot) *Snapshot {
	snap.Gen = s.gen.Add(1)
	s.swapNanos.Store(time.Now().UnixNano())
	s.st.Store(&state{snap: snap, cache: NewCache(s.opts.CacheSize)})
	return snap
}

// Swap atomically installs a new list version. In-flight lookups keep
// the snapshot they loaded; subsequent lookups see the new one. The
// lookup cache is replaced wholesale with an empty cache bound to the
// new snapshot. Returns the installed snapshot.
func (s *Service) Swap(l *psl.List, seq int) *Snapshot {
	return s.install(s.buildSnapshot(l, seq))
}

// SwapVerified is Swap for callers that already verified the list's
// rules fingerprint (a dist replica walking the fingerprint chain). The
// fingerprint buys two compile elisions:
//
//   - m != nil installs the pre-built matcher as-is — the blob-fed path,
//     where the caller unpacked the origin's compiled blob and the
//     service never compiles at all;
//   - m == nil but fp equals the installed snapshot's fingerprint reuses
//     the installed matcher — a patched version whose rules came out
//     byte-identical (changes cancelling out across a compaction window)
//     must not pay a recompile, while the new Version/Seq metadata still
//     installs so /v1/version tracks upstream.
//
// Anything else compiles exactly like Swap. fp may be empty (disables
// both elisions now and reuse later).
func (s *Service) SwapVerified(l *psl.List, seq int, fp string, m psl.Matcher) *Snapshot {
	// Failpoint: a blob-fed install degrades to the compile fallback —
	// the swap itself must still land, the same contract as a blob that
	// failed verification upstream.
	if m != nil && fpInstallBlob.Inject() != nil {
		m = nil
	}
	var snap *Snapshot
	switch cur := s.st.Load(); {
	case m != nil:
		s.blobInstalls.Add(1)
		snap = NewSnapshotWith(l, seq, m)
	case cur != nil && fp != "" && fp == cur.snap.Fingerprint && cur.snap.Matcher != nil:
		s.reuseInstalls.Add(1)
		snap = NewSnapshotWith(l, seq, cur.snap.Matcher)
	default:
		snap = s.buildSnapshot(l, seq)
	}
	snap.Fingerprint = fp
	return s.install(snap)
}

// buildSnapshot constructs a snapshot over the list's packed matcher.
// Every call counts as one compile in the install-provenance metric.
func (s *Service) buildSnapshot(l *psl.List, seq int) *Snapshot {
	s.compileInstalls.Add(1)
	return NewSnapshot(l, seq)
}

// MatcherInstalls reports how many snapshot installs compiled a matcher,
// received one pre-built (blob-fed), or reused the previous snapshot's.
// The e2e tests assert "zero compiles after bootstrap" through this.
func (s *Service) MatcherInstalls() (compile, blob, reuse uint64) {
	return s.compileInstalls.Load(), s.blobInstalls.Load(), s.reuseInstalls.Load()
}

// SetVersion materialises and installs history version seq. It errors
// without a configured history or for an out-of-range seq. The snapshot
// comes from the versioned-lookup cache, so flipping between recently
// served versions does not recompile.
func (s *Service) SetVersion(seq int) error {
	h := s.opts.History
	if h == nil {
		return errors.New("serve: no history configured")
	}
	if seq < 0 || seq >= h.Len() {
		return fmt.Errorf("serve: version %d out of range [0,%d)", seq, h.Len())
	}
	// Install a copy: the cached snapshot stays Gen-less and shareable,
	// the installed one carries its swap generation.
	snap := *s.versionSnapshot(seq)
	s.install(&snap)
	return nil
}

// SetJournal wires the propagation journal the service records each
// snapshot's served_first event into, completing the
// published→…→installed→served_first timeline on a serving node.
func (s *Service) SetJournal(j *obs.Journal) { s.journal.Store(j) }

// noteServed records served_first the first time a state answers
// traffic. The steady-state cost is one read-mostly atomic load; the
// CAS and journal write happen once per installed snapshot.
func (s *Service) noteServed(st *state) {
	if !st.served.Load() && st.served.CompareAndSwap(false, true) {
		s.journal.Load().Record(st.snap.Seq, obs.StageServedFirst)
	}
}

// Current returns the snapshot now in effect.
func (s *Service) Current() *Snapshot { return s.st.Load().snap }

// Swaps reports how many snapshots have been installed (including the
// initial one).
func (s *Service) Swaps() uint64 { return s.gen.Load() }

// CacheStats reports cumulative lookup-cache hits and misses and the
// current cache occupancy.
func (s *Service) CacheStats() (hits, misses uint64, size int) {
	return s.hits.Load(), s.misses.Load(), s.st.Load().cache.Len()
}

// Lookup answers against the current snapshot through the lookup
// cache. The raw query string is the cache key, so repeated queries
// skip normalization entirely on hits.
func (s *Service) Lookup(host string) (Answer, error) {
	m := s.m
	var t0 time.Time
	timed := false
	if m != nil && m.armed.Load() && m.armed.CompareAndSwap(true, false) {
		timed = true
		t0 = time.Now()
	}
	st := s.st.Load()
	s.noteServed(st)
	if a, ok := st.cache.Get(host); ok {
		if s.hits.AddSampled(1, hitSampleEvery) && m != nil {
			m.armed.Store(true)
		}
		if timed {
			m.hit.Observe(time.Since(t0))
		}
		a.Cached = true
		return a, nil
	}
	s.misses.Add(1)
	if m != nil && !timed {
		timed = true
		t0 = time.Now()
	}
	a, err := st.snap.Resolve(host)
	if err != nil {
		s.errs.Add(1)
		return Answer{}, err
	}
	st.cache.Put(host, a)
	if timed {
		m.miss.Observe(time.Since(t0))
	}
	return a, nil
}

// LookupAt answers against a specific history version, bypassing the
// lookup cache (historical traffic is assumed cold); the materialised
// snapshot itself is cached so repeated versioned queries stay cheap.
func (s *Service) LookupAt(host string, seq int) (Answer, error) {
	h := s.opts.History
	if h == nil {
		return Answer{}, errors.New("serve: no history configured")
	}
	if seq < 0 || seq >= h.Len() {
		return Answer{}, fmt.Errorf("serve: version %d out of range [0,%d)", seq, h.Len())
	}
	return s.versionSnapshot(seq).Resolve(host)
}

// versionSnapshot returns a materialised snapshot of history version
// seq, keeping a small FIFO-bounded cache of recently used versions, so
// SetVersion and LookupAt compile a cached version only once.
func (s *Service) versionSnapshot(seq int) *Snapshot {
	s.versionMu.Lock()
	defer s.versionMu.Unlock()
	if snap, ok := s.versionSnaps[seq]; ok {
		return snap
	}
	t0 := time.Now()
	snap := NewSnapshot(s.opts.History.ListAt(seq), seq)
	s.compiles.Add(1)
	s.compileDuration.Observe(time.Since(t0))
	for len(s.versionOrder) >= versionCacheSize {
		old := s.versionOrder[0]
		s.versionOrder = s.versionOrder[1:]
		delete(s.versionSnaps, old)
	}
	s.versionSnaps[seq] = snap
	s.versionOrder = append(s.versionOrder, seq)
	return snap
}

// --- HTTP layer ------------------------------------------------------

// API paths mounted by Handler, plus the conventional metrics path the
// server binaries mount an obs.Registry on.
const (
	LookupPath  = "/v1/lookup"
	BatchPath   = "/v1/batch"
	VersionPath = "/v1/version"
	HealthPath  = "/healthz"
	MetricsPath = "/metrics"
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Handler returns the service's HTTP API:
//
//	GET /v1/lookup?host=H[&version=N]  eTLD / eTLD+1 answer (JSON)
//	GET /v1/version                    current list version metadata
//	GET /healthz                       liveness + cache/admission stats
func (s *Service) Handler() http.Handler { return s.mux }

// ServeHTTP makes the Service itself mountable as a handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleLookup serves /v1/lookup behind the admission semaphore.
func (s *Service) handleLookup(w http.ResponseWriter, r *http.Request) {
	select {
	case s.tokens <- struct{}{}:
		defer func() { <-s.tokens }()
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server overloaded"})
		return
	}
	s.admitted.Add(1)

	host := r.URL.Query().Get("host")
	if host == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing host parameter"})
		return
	}
	var (
		a   Answer
		err error
	)
	sp := obs.TraceFrom(r.Context()).Stage("lookup")
	if v := r.URL.Query().Get("version"); v != "" {
		seq, perr := strconv.Atoi(v)
		if perr != nil {
			sp.End()
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad version parameter"})
			return
		}
		a, err = s.LookupAt(host, seq)
		if err != nil && !errors.Is(err, psl.ErrNotDomain) {
			sp.End()
			writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
			return
		}
	} else {
		a, err = s.Lookup(host)
	}
	sp.End()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, a)
}

// versionBody is the JSON body of /v1/version.
type versionBody struct {
	Version string    `json:"version"`
	Seq     int       `json:"seq"`
	Rules   int       `json:"rules"`
	Date    time.Time `json:"date"`
	Swaps   uint64    `json:"swaps"`
	Source  string    `json:"source"`
	LagSeqs int64     `json:"lag_seqs"`
}

func (s *Service) handleVersion(w http.ResponseWriter, r *http.Request) {
	snap := s.Current()
	source, lag := s.sourceInfo()
	writeJSON(w, http.StatusOK, versionBody{
		Version: snap.List.Version,
		Seq:     snap.Seq,
		Rules:   snap.List.Len(),
		Date:    snap.List.Date,
		Swaps:   s.Swaps(),
		Source:  source,
		LagSeqs: lag,
	})
}

// healthBody is the JSON body of /healthz.
type healthBody struct {
	Status             string   `json:"status"`
	Version            string   `json:"version"`
	Seq                int      `json:"seq"`
	GoVersion          string   `json:"go_version"`
	Swaps              uint64   `json:"swaps"`
	SnapshotAgeSeconds float64  `json:"snapshot_age_seconds"`
	CacheHits          uint64   `json:"cache_hits"`
	CacheMisses        uint64   `json:"cache_misses"`
	CacheSize          int      `json:"cache_size"`
	CacheBytes         int64    `json:"cache_bytes"`
	InFlight           int      `json:"in_flight"`
	MaxInFlight        int      `json:"max_in_flight"`
	Admitted           uint64   `json:"admitted"`
	Rejected           uint64   `json:"rejected"`
	UptimeSeconds      int64    `json:"uptime_seconds"`
	Source             string   `json:"source"`
	LagSeqs            int64    `json:"lag_seqs"`
	Reasons            []string `json:"reasons,omitempty"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.CacheStats()
	snap := s.Current()
	source, lag := s.sourceInfo()
	age := time.Since(time.Unix(0, s.swapNanos.Load()))
	status, code := "ok", http.StatusOK
	reasons := s.healthReasons(lag, age)
	if len(reasons) > 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthBody{
		Status:             status,
		Reasons:            reasons,
		Source:             source,
		LagSeqs:            lag,
		Version:            snap.List.Version,
		Seq:                snap.Seq,
		GoVersion:          runtime.Version(),
		Swaps:              s.Swaps(),
		SnapshotAgeSeconds: age.Seconds(),
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheSize:          size,
		CacheBytes:         s.st.Load().cache.Bytes(),
		InFlight:           len(s.tokens),
		MaxInFlight:        s.opts.MaxInFlight,
		Admitted:           s.admitted.Load(),
		Rejected:           s.rejected.Load(),
		UptimeSeconds:      int64(time.Since(s.start).Seconds()),
	})
}

// ListenAndServe runs srv until ctx is cancelled, then drains it
// gracefully (up to the given timeout) before returning. A nil error
// means a clean shutdown.
func ListenAndServe(ctx context.Context, srv *http.Server, shutdownTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	return waitServe(ctx, srv, errc, shutdownTimeout)
}

// ServeListener is ListenAndServe over an already-bound listener, for
// callers that want bind errors before the serving loop starts (and for
// tests using ephemeral ports).
func ServeListener(ctx context.Context, srv *http.Server, ln net.Listener, shutdownTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return waitServe(ctx, srv, errc, shutdownTimeout)
}

// waitServe waits for the serve loop to end or the context to cancel,
// then drains gracefully.
func waitServe(ctx context.Context, srv *http.Server, errc chan error, shutdownTimeout time.Duration) error {
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
