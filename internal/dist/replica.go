package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"

	"repro/internal/faultfs"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/psl"
	"repro/internal/resilience"
)

// maxBlobBytes bounds any single response body the replica will read;
// the full 9.4k-rule list encodes to ~170KB, so 16MB is generous.
const maxBlobBytes = 16 << 20

// ReplicaOptions tunes a Replica. Zero values get defaults.
type ReplicaOptions struct {
	// Client performs the HTTP requests. Default: a client with a
	// 30-second timeout (never the zero-timeout http.DefaultClient — a
	// stalled origin must not hang the poll loop forever).
	Client *http.Client
	// PollInterval is the steady-state manifest poll cadence, jittered
	// ±20% per cycle. Default 1s.
	PollInterval time.Duration
	// RequestTimeout bounds one transfer end to end via the request
	// context, and is propagated to the origin through the resilience
	// deadline header so a loaded origin can shed work the replica has
	// already abandoned. Default 10s.
	RequestTimeout time.Duration
	// BackoffBase and BackoffMax bound the jittered exponential backoff
	// between retries of a failed transfer. Defaults 100ms and 5s.
	BackoffBase, BackoffMax time.Duration
	// MaxHop caps how many versions one patch spans; catching up from
	// far behind takes several hops. Default 64.
	MaxHop int
	// MaxAttempts is how many consecutive failed hop attempts trigger
	// the full-blob fallback. Default 4.
	MaxAttempts int
	// BreakerThreshold and BreakerOpenFor tune the circuit breaker in
	// front of the origin: after BreakerThreshold consecutive
	// transport-level failures the replica fails fast for BreakerOpenFor
	// before probing again. Only transport failures count — a corrupt
	// blob delivered with a 200 is the origin lying, not the wire being
	// down, and must not block the full-sync recovery path. Defaults 5
	// and 1s.
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// RetryBudget and RetryDeposit tune the token-bucket retry budget:
	// every retry spends one token, every successful transfer earns
	// RetryDeposit (capped at RetryBudget). An exhausted budget ends the
	// cycle instead of hammering a struggling origin; the next poll
	// starts fresh. Defaults 16 and 0.5.
	RetryBudget  float64
	RetryDeposit float64
	// StateDir, when non-empty, durably persists every verified snapshot
	// (write-temp → fsync → atomic-rename, see SaveState) so a restarted
	// replica can resume from its last verified seq via RestoreState
	// instead of a full bootstrap. Persistence failures are counted,
	// never block a swap.
	StateDir string
	// FS, when set, is the filesystem behind StateDir persistence —
	// crash-consistency tests hand in a faultfs.MemFS here and torture
	// the replica's save/restore path without touching a real disk. Nil
	// means the real OS wrapped with the dist.state / dist.blob
	// failpoint sites.
	FS faultfs.FS
	// FetchBlobs opts in to pulling the upstream's compiled matcher blob
	// (/dist/blob/{seq}) after each verified install, handing it to
	// OnInstall so the serving layer can swap versions without
	// recompiling. The fetch is strictly best-effort and fully verified:
	// an upstream without the endpoint, a transport error, or a blob
	// that fails any verification step just yields a nil matcher (the
	// consumer compiles locally) — it never delays the install, trips
	// the circuit breaker, or spends the retry budget.
	FetchBlobs bool
	// Seed drives poll and backoff jitter. Default 1.
	Seed int64
	// Ring, when set, retains a client-side TraceRecord for every
	// upstream request the replica makes (manifest, patch, full, blob),
	// carrying the same trace ID the upstream's server-side ring logs —
	// the two halves of one hop in /debug/traces.
	Ring *obs.TraceRing
	// Journal, when set, records the per-seq lifecycle events the
	// replica observes: published (from a manifest's PublishedAt, on
	// the origin's clock), fetched, verified, and installed.
	Journal *obs.Journal
}

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.PollInterval <= 0 {
		o.PollInterval = time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.MaxHop <= 0 {
		o.MaxHop = 64
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerOpenFor <= 0 {
		o.BreakerOpenFor = time.Second
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 16
	}
	if o.RetryDeposit <= 0 {
		o.RetryDeposit = 0.5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// replicaState is the replica's current verified snapshot.
type replicaState struct {
	list *psl.List
	seq  int
	fp   string
}

// Replica follows an origin: it polls the manifest (with ETag
// short-circuiting), pulls patch chains toward the advertised head,
// verifies the fingerprint at every hop, and falls back to a full-blob
// sync after repeated failures (broken chain, verification mismatch, or
// transport errors alike). Every list handed to OnSwap has had its
// fingerprint verified against the blob that produced it — a replica
// never swaps in a list the origin didn't cryptographically promise.
//
// Failure handling is built from the shared resilience primitives: a
// circuit breaker on transport errors, a token-bucket retry budget, and
// capped jittered backoff that resets after a successful poll. With a
// StateDir configured, every verified install is also persisted
// crash-safely so a restart resumes from the last verified seq.
//
// Poll, Bootstrap, and Run must be used from one goroutine; Lag,
// CurrentSeq, and the counters are safe to read from any goroutine.
type Replica struct {
	origin string
	opts   ReplicaOptions

	// OnSwap, if set, is invoked after each verified snapshot install
	// (not for Bootstrap, whose result the caller installs). Set before
	// calling Run.
	OnSwap func(l *psl.List, seq int)

	// OnVerified, if set, is invoked for every verified install —
	// including the one Bootstrap performs — with the fingerprint the
	// blob was verified against. It runs before OnSwap; relays use it to
	// extend their retained snapshot window without recomputing the
	// fingerprint. Set before calling Bootstrap or Run.
	OnVerified func(l *psl.List, seq int, fp string)

	// OnInstall, if set, supersedes OnSwap as the serving-layer hook
	// (not for Bootstrap, whose result the caller installs): it carries
	// the verified fingerprint and, with FetchBlobs, the upstream's
	// pre-compiled matcher for the version — nil when the blob was
	// absent or failed verification, in which case the consumer compiles
	// (or reuses, when the fingerprint is unchanged) locally. It runs
	// after OnVerified and before OnSwap. Set before calling Run.
	OnInstall func(l *psl.List, seq int, fp string, m psl.Matcher)

	state        replicaState
	curSeq       atomic.Int64
	headSeq      atomic.Int64
	manifestETag string
	headFP       string
	minSeq       int // oldest seq the upstream can serve patches from
	depth        atomic.Int32

	// pubTimes remembers the publish time each head seq was advertised
	// with, so a relay's own manifest can carry it downstream.
	pubMu    sync.Mutex
	pubTimes map[int]time.Time

	rng     *rand.Rand
	backoff *resilience.Backoff
	breaker *resilience.Breaker
	budget  *resilience.Budget

	// stateFS / matcherFS back StateDir persistence: the package
	// defaults (instrumented OS) unless ReplicaOptions.FS overrides
	// them, in which case the override is wrapped with the same
	// failpoint sites so specs behave identically on both.
	stateFS   faultfs.FS
	matcherFS faultfs.FS

	polls, pollErrors obs.Counter
	applied           obs.Counter
	patchBytes        obs.Counter
	fullBytes         obs.Counter
	verifyFailures    obs.Counter
	fallbacks         obs.Counter
	fullSyncs         obs.Counter
	compactProbes     obs.Counter
	compactHits       obs.Counter
	retries           obs.Counter
	persisted         obs.Counter
	persistErrors     obs.Counter
	applyDur          *obs.Histogram

	blobHits      obs.Counter // blob fetched, fully verified, handed to OnInstall
	blobMisses    obs.Counter // endpoint absent or transport failure
	blobInvalid   obs.Counter // blob fetched but failed verification
	blobPersisted obs.Counter // verified blobs durably written to StateDir
}

// NewReplica builds a replica for the origin at base URL (e.g.
// "http://127.0.0.1:8353"; the /dist/ prefix is appended internally).
// It starts empty: seed it with Bootstrap, RestoreState, or SetState
// before Run.
func NewReplica(origin string, opts ReplicaOptions) *Replica {
	opts = opts.withDefaults()
	r := &Replica{
		origin:   origin,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		backoff:  resilience.NewBackoff(opts.BackoffBase, opts.BackoffMax, opts.Seed),
		breaker:  resilience.NewBreaker(resilience.BreakerOptions{FailureThreshold: opts.BreakerThreshold, OpenFor: opts.BreakerOpenFor}),
		budget:   resilience.NewBudget(opts.RetryBudget, opts.RetryDeposit),
		applyDur: obs.NewHistogram(nil),
	}
	if opts.FS != nil {
		r.stateFS = faultfs.Instrument(opts.FS, "dist.state")
		r.matcherFS = faultfs.Instrument(opts.FS, "dist.blob")
	} else {
		r.stateFS, r.matcherFS = stateFS, blobFS
	}
	r.curSeq.Store(-1)
	r.headSeq.Store(-1)
	return r
}

// SetState installs a known snapshot (e.g. a locally embedded list) as
// the replica's starting point.
func (r *Replica) SetState(l *psl.List, seq int) {
	r.state = replicaState{list: l, seq: seq, fp: l.Fingerprint()}
	r.curSeq.Store(int64(seq))
}

// RestoreState loads the snapshot persisted in StateDir (checksum and
// fingerprint verified) and installs it as the replica's starting
// point, without invoking OnSwap. A missing state file surfaces as
// fs.ErrNotExist so callers can fall back to Bootstrap.
func (r *Replica) RestoreState() (*psl.List, int, error) {
	if r.opts.StateDir == "" {
		return nil, 0, fmt.Errorf("dist: RestoreState without a StateDir")
	}
	l, seq, err := LoadStateFS(r.stateFS, r.opts.StateDir)
	if err != nil {
		return nil, 0, err
	}
	r.SetState(l, seq)
	return l, seq, nil
}

// CurrentSeq reports the last installed version, or -1 before any.
func (r *Replica) CurrentSeq() int64 { return r.curSeq.Load() }

// Lag reports how many versions the replica trails the origin's last
// advertised head — the replication-lag gauge. Zero when caught up or
// when no manifest has been seen yet.
func (r *Replica) Lag() int64 {
	head, cur := r.headSeq.Load(), r.curSeq.Load()
	if head < 0 || cur >= head {
		return 0
	}
	return head - cur
}

// Counter accessors for tests and health reporting.

// Polls reports replication cycles attempted (Bootstrap included).
func (r *Replica) Polls() uint64 { return r.polls.Load() }

// PollErrors reports cycles that ended in a transport or protocol
// error.
func (r *Replica) PollErrors() uint64 { return r.pollErrors.Load() }

// Applied reports patches successfully applied and installed.
func (r *Replica) Applied() uint64 { return r.applied.Load() }

// Fallbacks reports full-blob syncs taken after patching failed.
func (r *Replica) Fallbacks() uint64 { return r.fallbacks.Load() }

// FullSyncs reports all full-blob syncs performed (bootstrap, empty
// start, and fallback alike) — the expensive transfers a persisted
// state dir exists to avoid.
func (r *Replica) FullSyncs() uint64 { return r.fullSyncs.Load() }

// CompactProbes reports single compacted catch-up patches attempted
// after bounded hops failed, the last patch-shaped step before a
// full-blob fallback.
func (r *Replica) CompactProbes() uint64 { return r.compactProbes.Load() }

// CompactHits reports compaction probes that succeeded, each one a full
// blob the fleet never had to move.
func (r *Replica) CompactHits() uint64 { return r.compactHits.Load() }

// UpstreamDepth reports the upstream's advertised distance from the
// authoritative origin (0 = following the origin directly), from the
// last decoded manifest. A relay advertises this plus one downstream.
func (r *Replica) UpstreamDepth() int { return int(r.depth.Load()) }

// VerifyFailures reports blobs rejected by checksum, decode, or
// fingerprint verification.
func (r *Replica) VerifyFailures() uint64 { return r.verifyFailures.Load() }

// Retries reports failed transfer attempts that were retried.
func (r *Replica) Retries() uint64 { return r.retries.Load() }

// Persisted reports verified snapshots durably written to StateDir.
func (r *Replica) Persisted() uint64 { return r.persisted.Load() }

// BlobHits reports compiled matcher blobs fetched and fully verified.
func (r *Replica) BlobHits() uint64 { return r.blobHits.Load() }

// BlobMisses reports blob fetches that failed at the transport layer or
// found no blob upstream (a pre-blob origin answering 404).
func (r *Replica) BlobMisses() uint64 { return r.blobMisses.Load() }

// BlobInvalid reports fetched blobs rejected by envelope, structural,
// or fingerprint verification — each one a fall-back to local compile.
func (r *Replica) BlobInvalid() uint64 { return r.blobInvalid.Load() }

// PersistErrors reports snapshot persistence failures (the swap still
// proceeded; only durability was lost).
func (r *Replica) PersistErrors() uint64 { return r.persistErrors.Load() }

// Breaker exposes the origin circuit breaker for health reporting.
func (r *Replica) Breaker() *resilience.Breaker { return r.breaker }

// RetryBudget exposes the retry budget for health reporting.
func (r *Replica) RetryBudget() *resilience.Budget { return r.budget }

// RegisterMetrics attaches the replica's metric families to a registry.
func (r *Replica) RegisterMetrics(reg *obs.Registry) {
	reg.MustRegister("psl_dist_replica_lag_seqs", "Versions the replica trails the origin head.",
		nil, obs.GaugeFunc(func() float64 { return float64(r.Lag()) }))
	reg.MustRegister("psl_dist_replica_polls_total", "Manifest polls attempted.", nil, &r.polls)
	reg.MustRegister("psl_dist_replica_poll_errors_total", "Polls that ended in a transport or protocol error.", nil, &r.pollErrors)
	reg.MustRegister("psl_dist_replica_patches_applied_total", "Patches verified and installed.", nil, &r.applied)
	reg.MustRegister("psl_dist_replica_bytes_total", "Blob bytes fetched, by transfer kind.",
		obs.Labels{{"kind", "patch"}}, &r.patchBytes)
	reg.MustRegister("psl_dist_replica_bytes_total", "Blob bytes fetched, by transfer kind.",
		obs.Labels{{"kind", "full"}}, &r.fullBytes)
	reg.MustRegister("psl_dist_replica_verify_failures_total", "Blobs rejected by checksum or fingerprint verification.", nil, &r.verifyFailures)
	reg.MustRegister("psl_dist_replica_fallback_syncs_total", "Full-blob syncs taken after patch chains failed.", nil, &r.fallbacks)
	reg.MustRegister("psl_dist_replica_full_syncs_total", "All full-blob syncs performed (bootstrap, empty start, fallback).", nil, &r.fullSyncs)
	reg.MustRegister("psl_dist_replica_compact_probes_total", "Single compacted catch-up patches attempted after bounded hops failed.", nil, &r.compactProbes)
	reg.MustRegister("psl_dist_replica_compact_probe_hits_total", "Compaction probes that succeeded, avoiding a full-blob sync.", nil, &r.compactHits)
	reg.MustRegister("psl_dist_replica_retries_total", "Failed transfer attempts that were retried.", nil, &r.retries)
	reg.MustRegister("psl_dist_replica_state_persisted_total", "Verified snapshots durably persisted to the state dir.", nil, &r.persisted)
	reg.MustRegister("psl_dist_replica_state_persist_errors_total", "Snapshot persistence failures (swap proceeded, durability lost).", nil, &r.persistErrors)
	reg.MustRegister("psl_dist_replica_apply_duration_seconds", "Time to decode, verify, and apply one blob.", nil, r.applyDur)
	reg.MustRegister("psl_dist_blob_fetches_total", "Compiled matcher blob fetches, by outcome.",
		obs.Labels{{"result", "hit"}}, &r.blobHits)
	reg.MustRegister("psl_dist_blob_fetches_total", "Compiled matcher blob fetches, by outcome.",
		obs.Labels{{"result", "miss"}}, &r.blobMisses)
	reg.MustRegister("psl_dist_blob_fetches_total", "Compiled matcher blob fetches, by outcome.",
		obs.Labels{{"result", "invalid"}}, &r.blobInvalid)
	reg.MustRegister("psl_dist_blob_persisted_total", "Verified matcher blobs durably persisted to the state dir.",
		nil, &r.blobPersisted)
	r.breaker.RegisterMetrics(reg, "dist_origin")
	r.budget.RegisterMetrics(reg, "dist_replica")
}

// errNotFound marks a 404: the upstream does not hold what was asked.
var errNotFound = errors.New("status 404")

// get fetches one dist path, enforcing the body size cap. A non-2xx
// status, oversized body, or transport error (including mid-body
// truncation) is returned as an error. Every exchange runs under the
// origin circuit breaker — an open circuit fails fast with ErrOpen —
// and under RequestTimeout, propagated to the origin via the deadline
// header. Transport-level outcomes feed the breaker; successful
// transfers (including 304s) also replenish the retry budget.
func (r *Replica) get(ctx context.Context, path, etag string) (body []byte, gotETag string, status int, err error) {
	ct := r.requestTrace(ctx)
	defer func() { r.recordClientTrace(ct, path, status, int64(len(body)), err) }()
	gen, ok := r.breaker.Allow()
	if !ok {
		return nil, "", 0, fmt.Errorf("dist: GET %s: %w", path, resilience.ErrOpen)
	}
	ctx, cancel := context.WithTimeout(ctx, r.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.origin+path, nil)
	if err != nil {
		r.breaker.Record(gen, err)
		return nil, "", 0, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	obs.InjectTrace(req, ct)
	resilience.PropagateDeadline(req)
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		r.breaker.Record(gen, err)
		return nil, "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		r.breaker.Record(gen, nil)
		r.budget.OnSuccess()
		return nil, etag, resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		// Drain a little so the connection can be reused, then fail.
		_, _ = io.CopyN(io.Discard, resp.Body, 4096)
		err = fmt.Errorf("dist: GET %s: status %d", path, resp.StatusCode)
		if resp.StatusCode == http.StatusNotFound {
			err = fmt.Errorf("dist: GET %s: %w", path, errNotFound)
		}
		r.breaker.Record(gen, err)
		return nil, "", resp.StatusCode, err
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	if err != nil {
		err = fmt.Errorf("dist: GET %s: %w", path, err)
		r.breaker.Record(gen, err)
		return nil, "", resp.StatusCode, err
	}
	if len(body) > maxBlobBytes {
		err = fmt.Errorf("dist: GET %s: body exceeds %d bytes", path, maxBlobBytes)
		r.breaker.Record(gen, err)
		return nil, "", resp.StatusCode, err
	}
	r.breaker.Record(gen, nil)
	r.budget.OnSuccess()
	return body, resp.Header.Get("ETag"), resp.StatusCode, nil
}

// requestTrace mints the trace one outbound request carries: a child
// span of the poll cycle's trace when the context has one (every
// request of one cycle then shares the cycle's trace ID — the ID the
// upstream's access log and trace ring record), a fresh root otherwise.
func (r *Replica) requestTrace(ctx context.Context) *obs.Trace {
	if parent := obs.TraceFrom(ctx); parent != nil {
		return obs.ContinueTrace(parent.TraceID, parent.SpanID, parent.ID)
	}
	return obs.NewTrace("")
}

// recordClientTrace retains one completed upstream exchange in the
// configured trace ring; a nil ring drops it.
func (r *Replica) recordClientTrace(ct *obs.Trace, path string, status int, bytes int64, err error) {
	if r.opts.Ring == nil {
		return
	}
	rec := &obs.TraceRecord{
		Time:     ct.Start,
		Kind:     "client",
		ReqID:    ct.ID,
		TraceID:  ct.TraceID,
		SpanID:   ct.SpanID,
		ParentID: ct.ParentID,
		Method:   http.MethodGet,
		Path:     path,
		Status:   status,
		Bytes:    bytes,
		Duration: time.Since(ct.Start),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	r.opts.Ring.Record(rec)
}

// FetchMatcherBlob pulls /dist/blob/{seq} from the upstream and runs
// the full verification chain (UnpackMatcherBlob) against the expected
// seq and verified fingerprint, persisting the envelope to StateDir on
// success so a restart reuses it without recompiling. It returns nil on
// any failure — missing endpoint, transport error, corrupt or
// mismatched blob — because the caller always has a correct fallback:
// compile the verified rules locally.
//
// Unlike get, this path deliberately bypasses the circuit breaker and
// retry budget. The breaker protects the replication channel, and a
// blob failure is not a replication failure: the rules already arrived
// and verified, only the optional compile shortcut is unavailable. A
// pre-blob upstream answering 404 forever must not open the breaker and
// block real syncs.
func (r *Replica) FetchMatcherBlob(ctx context.Context, seq int, fp string) *psl.PackedMatcher {
	path := fmt.Sprintf("%s%d", blobPrefix, seq)
	ct := r.requestTrace(ctx)
	var status int
	var got int64
	var terr error
	defer func() { r.recordClientTrace(ct, path, status, got, terr) }()
	ctx, cancel := context.WithTimeout(ctx, r.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.origin+path, nil)
	if err != nil {
		terr = err
		r.blobMisses.Add(1)
		return nil
	}
	obs.InjectTrace(req, ct)
	resilience.PropagateDeadline(req)
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		terr = err
		r.blobMisses.Add(1)
		return nil
	}
	defer resp.Body.Close()
	status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.CopyN(io.Discard, resp.Body, 4096)
		r.blobMisses.Add(1)
		return nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	got = int64(len(body))
	if err != nil || len(body) > maxBlobBytes {
		terr = err
		r.blobMisses.Add(1)
		return nil
	}
	pm, err := UnpackMatcherBlob(body, seq, fp)
	if err != nil {
		r.blobInvalid.Add(1)
		return nil
	}
	r.blobHits.Add(1)
	if r.opts.StateDir != "" {
		if err := SaveMatcherBlobFS(r.matcherFS, r.opts.StateDir, body); err != nil {
			r.persistErrors.Add(1)
		} else {
			r.blobPersisted.Add(1)
		}
	}
	return pm
}

// Poll performs one replication cycle: refresh the manifest, then chase
// the head if behind. Transfer errors inside the cycle are retried —
// budget permitting — with the shared jittered backoff and, after
// MaxAttempts consecutive failures of a hop, a full-blob fallback; Poll
// only returns an error once the cycle cannot make progress (or ctx
// ends). A cycle that ends cleanly resets the backoff schedule.
func (r *Replica) Poll(ctx context.Context) error {
	r.polls.Add(1)
	if obs.TraceFrom(ctx) == nil {
		// Root the cycle: every request it makes (manifest, patches,
		// blobs) becomes a child span sharing one trace ID, which is the
		// ID the upstream's access log and trace ring see arriving.
		ctx = obs.WithTrace(ctx, obs.NewTrace(""))
	}
	body, etag, status, err := r.get(ctx, ManifestPath, r.manifestETag)
	if err != nil {
		r.pollErrors.Add(1)
		return err
	}
	if status != http.StatusNotModified {
		m, err := DecodeManifest(body)
		if err != nil {
			r.pollErrors.Add(1)
			return err
		}
		r.manifestETag = etag
		r.headFP = m.Fingerprint
		r.minSeq = m.MinSeq
		r.depth.Store(int32(m.Depth))
		r.headSeq.Store(int64(m.Seq))
		r.notePublished(m)
	}
	if err := r.syncToHead(ctx); err != nil {
		r.pollErrors.Add(1)
		return err
	}
	r.backoff.Reset()
	return nil
}

// maxPubTimes bounds the publish-time memory; heads arrive one at a
// time, so a few hundred covers any realistic catch-up window.
const maxPubTimes = 256

// notePublished remembers when the upstream said a head seq was
// published — journalled as the timeline's first event (on the
// origin's clock, carried through every tier by the manifest) and kept
// for this node's own manifest when it relays.
func (r *Replica) notePublished(m Manifest) {
	if m.PublishedAt.IsZero() {
		return
	}
	r.opts.Journal.RecordAt(m.Seq, obs.StagePublished, m.PublishedAt)
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	if r.pubTimes == nil {
		r.pubTimes = make(map[int]time.Time)
	}
	if _, ok := r.pubTimes[m.Seq]; !ok && len(r.pubTimes) >= maxPubTimes {
		lowest := m.Seq
		for s := range r.pubTimes {
			if s < lowest {
				lowest = s
			}
		}
		delete(r.pubTimes, lowest)
	}
	r.pubTimes[m.Seq] = m.PublishedAt
}

// PublishedAt reports the publish time the upstream advertised for a
// seq, ok=false when the manifest carried none (a pre-PublishedAt
// upstream) or the seq has aged out.
func (r *Replica) PublishedAt(seq int) (time.Time, bool) {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	at, ok := r.pubTimes[seq]
	return at, ok
}

// syncToHead walks the replica from its current version to the
// advertised head, one bounded patch hop at a time, escalating through
// the fallback ladder when hops fail:
//
//  1. bounded hops: patch cur→min(cur+MaxHop, head), chained;
//  2. compaction probe: after MaxAttempts failed hops, one request for
//     the single compacted patch cur→head. A relay that evicted the
//     intermediate versions a hop chain needs can still coalesce
//     everything it retains into one delta, and even a patch spanning
//     far more than MaxHop versions is almost always a fraction of the
//     full blob — the probe is what keeps a laggy edge on the cheap
//     path instead of silently paying for a full sync;
//  3. full-blob sync, the recovery of last resort.
//
// An empty replica, or one whose seq has fallen below the upstream's
// advertised min_seq retention window, skips straight to the full sync:
// no patch can serve it.
func (r *Replica) syncToHead(ctx context.Context) error {
	for {
		head := int(r.headSeq.Load())
		if r.state.list != nil && r.state.seq >= head {
			return nil
		}
		attempts := 0
		probed := false
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			hop := false
			switch {
			case r.state.list == nil || r.state.seq < r.minSeq:
				err = r.fullSync(ctx, head)
			case attempts < r.opts.MaxAttempts:
				hop = true
				to := min(r.state.seq+r.opts.MaxHop, head)
				err = r.applyHop(ctx, r.state.seq, to)
			case !probed && head > r.state.seq+r.opts.MaxHop:
				hop = true
				// The bounded hop kept failing; before paying for a full
				// blob, ask for one compacted patch covering the whole
				// gap. (When the gap fits in MaxHop the hop above already
				// requested exactly this span, so the probe is skipped.)
				probed = true
				r.compactProbes.Add(1)
				if err = r.applyHop(ctx, r.state.seq, head); err == nil {
					r.compactHits.Add(1)
				}
			default:
				r.fallbacks.Add(1)
				err = r.fullSync(ctx, head)
			}
			if err == nil {
				r.backoff.Reset()
				break
			}
			if hop && errors.Is(err, errNotFound) {
				// The upstream keeps no patch for that span — a relay
				// serves only the seqs it installed — so a retry would
				// get the same 404: take the next rung now, without
				// spending a retry token a drained budget may not have.
				attempts = max(attempts, r.opts.MaxAttempts)
				continue
			}
			attempts++
			if attempts > 2*r.opts.MaxAttempts+1 {
				return fmt.Errorf("dist: giving up after %d attempts: %w", attempts, err)
			}
			if !r.budget.Withdraw() {
				return fmt.Errorf("dist: retry budget exhausted after %d attempts: %w", attempts, err)
			}
			r.retries.Add(1)
			if !r.backoff.Sleep(ctx) {
				return ctx.Err()
			}
		}
	}
}

// applyHop fetches and applies the patch cur→to. The patch must decode
// (checksum, canonical rules), match the hop endpoints, and apply
// cleanly from the current fingerprint to its promised target, or the
// hop fails without touching the installed state.
func (r *Replica) applyHop(ctx context.Context, cur, to int) error {
	path := fmt.Sprintf("%s%d/%d", patchPrefix, cur, to)
	body, _, _, err := r.get(ctx, path, "")
	if err != nil {
		return err
	}
	r.opts.Journal.Record(to, obs.StageFetched)
	start := time.Now()
	p, err := DecodePatch(body)
	if err != nil {
		r.verifyFailures.Add(1)
		return err
	}
	if p.FromSeq != cur || p.ToSeq != to {
		r.verifyFailures.Add(1)
		return fmt.Errorf("%w: patch covers %d→%d, requested %d→%d", ErrCorrupt, p.FromSeq, p.ToSeq, cur, to)
	}
	l, err := p.Apply(r.state.list, r.state.fp)
	if err != nil {
		r.verifyFailures.Add(1)
		return err
	}
	r.applyDur.Observe(time.Since(start))
	r.patchBytes.Add(uint64(len(body)))
	r.applied.Add(1)
	r.opts.Journal.Record(p.ToSeq, obs.StageVerified)
	r.install(ctx, l, p.ToSeq, p.ToFP)
	return nil
}

// fullSync replaces the replica's state with the origin's full blob of
// version seq, the recovery path when patching cannot proceed.
func (r *Replica) fullSync(ctx context.Context, seq int) error {
	body, _, _, err := r.get(ctx, fmt.Sprintf("%s%d", fullPrefix, seq), "")
	if err != nil {
		return err
	}
	r.opts.Journal.Record(seq, obs.StageFetched)
	start := time.Now()
	f, err := DecodeFull(body)
	if err != nil {
		r.verifyFailures.Add(1)
		return err
	}
	if f.Seq != seq {
		r.verifyFailures.Add(1)
		return fmt.Errorf("%w: full blob is version %d, requested %d", ErrCorrupt, f.Seq, seq)
	}
	l, err := f.List()
	if err != nil {
		r.verifyFailures.Add(1)
		return err
	}
	r.applyDur.Observe(time.Since(start))
	r.fullBytes.Add(uint64(len(body)))
	r.fullSyncs.Add(1)
	r.opts.Journal.Record(f.Seq, obs.StageVerified)
	r.install(ctx, l, f.Seq, f.FP)
	return nil
}

// install publishes a verified snapshot: persist (when configured),
// then callbacks, then the atomics that feed Lag. A persistence failure
// is counted but never blocks the swap — serving fresh data beats
// durability. When FetchBlobs is on and an OnInstall consumer is
// wired, the upstream's pre-compiled matcher is fetched (best-effort,
// fully verified, breaker-free) between the relay hook and the swap.
func (r *Replica) install(ctx context.Context, l *psl.List, seq int, fp string) {
	r.state = replicaState{list: l, seq: seq, fp: fp}
	if r.opts.StateDir != "" {
		if err := SaveStateFS(r.stateFS, r.opts.StateDir, l, seq); err != nil {
			r.persistErrors.Add(1)
		} else {
			r.persisted.Add(1)
		}
	}
	if r.OnVerified != nil {
		r.OnVerified(l, seq, fp)
	}
	if r.OnInstall != nil {
		var m psl.Matcher
		if r.opts.FetchBlobs {
			if pm := r.FetchMatcherBlob(ctx, seq, fp); pm != nil {
				m = pm
			}
		}
		r.OnInstall(l, seq, fp, m)
	}
	if r.OnSwap != nil {
		r.OnSwap(l, seq)
	}
	r.curSeq.Store(int64(seq))
	r.opts.Journal.Record(seq, obs.StageInstalled)
}

// Bootstrap fetches the manifest and performs an initial full-blob sync
// of fromSeq (or the advertised head when fromSeq < 0), returning the
// verified list without invoking OnSwap: the caller typically builds
// its serving state from the return value. One attempt; callers retry.
func (r *Replica) Bootstrap(ctx context.Context, fromSeq int) (*psl.List, int, error) {
	r.polls.Add(1)
	if obs.TraceFrom(ctx) == nil {
		ctx = obs.WithTrace(ctx, obs.NewTrace(""))
	}
	body, etag, _, err := r.get(ctx, ManifestPath, "")
	if err != nil {
		r.pollErrors.Add(1)
		return nil, 0, err
	}
	m, err := DecodeManifest(body)
	if err != nil {
		r.pollErrors.Add(1)
		return nil, 0, err
	}
	r.notePublished(m)
	seq := fromSeq
	if seq < 0 || seq > m.Seq {
		seq = m.Seq
	}
	if seq < m.MinSeq {
		seq = m.MinSeq
	}
	onSwap, onInstall := r.OnSwap, r.OnInstall
	r.OnSwap, r.OnInstall = nil, nil
	err = r.fullSync(ctx, seq)
	r.OnSwap, r.OnInstall = onSwap, onInstall
	if err != nil {
		r.pollErrors.Add(1)
		return nil, 0, err
	}
	r.manifestETag = etag
	r.headFP = m.Fingerprint
	r.minSeq = m.MinSeq
	r.depth.Store(int32(m.Depth))
	r.headSeq.Store(int64(m.Seq))
	return r.state.list, r.state.seq, nil
}

// Run polls until ctx ends, sleeping a jittered PollInterval between
// cycles. Cycle errors are counted (poll_errors_total) and retried next
// cycle; only ctx cancellation stops the loop. On exit the client's
// idle keep-alive connections to the origin are closed, so a drained
// replica leaves no goroutines behind on either end of the wire.
func (r *Replica) Run(ctx context.Context) error {
	if t, ok := r.opts.Client.Transport.(interface{ CloseIdleConnections() }); ok {
		defer t.CloseIdleConnections()
	} else if r.opts.Client.Transport == nil {
		defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		_ = r.Poll(ctx)
		// ±20% jitter so a fleet of replicas doesn't thundering-herd.
		d := r.opts.PollInterval
		d = d - d/5 + time.Duration(r.rng.Int63n(int64(2*d/5+1)))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}
