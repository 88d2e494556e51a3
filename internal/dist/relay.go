package dist

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/psl"
)

// RelayOptions tunes a Relay. Zero values get defaults.
type RelayOptions struct {
	// Retain is how many verified snapshots the relay keeps for serving
	// downstream. The window bounds both how far back full blobs reach
	// and how stale an edge can be and still patch forward (advertised
	// as the manifest's min_seq). Default 64.
	Retain int
}

func (o RelayOptions) withDefaults() RelayOptions {
	if o.Retain <= 0 {
		o.Retain = 64
	}
	return o
}

// Relay re-serves the /dist/ protocol downstream of a Replica: it
// follows an upstream origin (or another relay — depth is unbounded),
// retains a sliding window of the verified snapshots the replica
// installs, and answers every /dist/ request from that window
// so edges fan out without touching the origin.
//
// The relay is also where delta compaction lives. Its patch endpoint is
// not limited to the hops the relay itself took upstream: any retained
// (from, to) pair is served by diffing the two snapshots directly, so N
// upstream patches coalesce into one downstream blob. The result is an
// ordinary "PSLD" patch — wire-format identical to an origin's, pinned
// by the same verified fingerprint chain — so edges need no new code
// path to benefit. Compacted spans (to-from > 1) are counted
// separately. Matcher blobs are likewise compiled from the verified
// snapshots rather than proxied: they carry the same promise, work when
// the upstream predates the endpoint, and cost nothing until an edge
// asks for one.
//
// Requests outside the window 404 (a pair the relay skipped past while
// catching up, or an edge staler than min_seq); an empty window —
// before the first verified install — answers 503 so a booting relay
// reads as "not ready" rather than "empty history". Edges recover from
// both through their normal fallback ladder.
//
// NewRelay claims the replica's OnVerified hook (chaining any existing
// one). ServeHTTP is safe for concurrent use alongside the replica's
// poll loop.
type Relay struct {
	server
	rep  *Replica
	opts RelayOptions

	mu sync.RWMutex
	// ring holds the retained snapshots, ascending seq, at most
	// opts.Retain of them. Their fingerprints arrived with the blobs
	// that produced them and were verified on install, so the relay
	// never recomputes one.
	ring []snapshot

	compactions, misses, unavailable obs.Counter
}

// NewRelay builds a relay over rep, claiming rep.OnVerified to feed the
// snapshot window (an already-set hook still runs, after the relay's).
// Call before rep starts Bootstrap or Run.
func NewRelay(rep *Replica, opts RelayOptions) *Relay {
	rl := &Relay{rep: rep, opts: opts.withDefaults()}
	rl.src, rl.journal = rl, rep.opts.Journal
	prev := rep.OnVerified
	rep.OnVerified = func(l *psl.List, seq int, fp string) {
		rl.push(snapshot{list: l, seq: seq, fp: fp})
		if prev != nil {
			prev(l, seq, fp)
		}
	}
	return rl
}

// Replica exposes the upstream-facing replica (for Run, Bootstrap,
// health, and metrics registration).
func (rl *Relay) Replica() *Replica { return rl.rep }

// Seed installs a trusted local snapshot (e.g. restored state) into the
// serving window. RestoreState and SetState do not pass through the
// verified-install path, so a relay resuming from disk calls this to
// become servable before its first upstream sync.
func (rl *Relay) Seed(l *psl.List, seq int) {
	rl.push(snapshot{list: l, seq: seq, fp: l.Fingerprint()})
}

// push appends a snapshot to the window and trims it to Retain.
func (rl *Relay) push(s snapshot) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	// Keep the ring strictly ascending: a re-install of a seq already
	// present (or a head rewind in tests) drops the suffix it replaces.
	for len(rl.ring) > 0 && rl.ring[len(rl.ring)-1].seq >= s.seq {
		rl.ring = rl.ring[:len(rl.ring)-1]
	}
	rl.ring = append(rl.ring, s)
	if len(rl.ring) > rl.opts.Retain {
		rl.ring = append([]snapshot(nil), rl.ring[len(rl.ring)-rl.opts.Retain:]...)
	}
}

// snapAt finds the retained snapshot at exactly seq.
func (rl *Relay) snapAt(seq int) (snapshot, bool) {
	rl.mu.RLock()
	defer rl.mu.RUnlock()
	for i := len(rl.ring) - 1; i >= 0; i-- {
		if rl.ring[i].seq == seq {
			return rl.ring[i], true
		}
		if rl.ring[i].seq < seq {
			break
		}
	}
	return snapshot{}, false
}

// window reports the retained [min, head] seq range, ok=false when
// nothing is retained yet.
func (rl *Relay) window() (head snapshot, minSeq int, ok bool) {
	rl.mu.RLock()
	defer rl.mu.RUnlock()
	if len(rl.ring) == 0 {
		return snapshot{}, 0, false
	}
	return rl.ring[len(rl.ring)-1], rl.ring[0].seq, true
}

// Retained reports how many snapshots the window currently holds.
func (rl *Relay) Retained() int {
	rl.mu.RLock()
	defer rl.mu.RUnlock()
	return len(rl.ring)
}

// Compactions reports patches served that coalesced more than one
// upstream version step into a single downstream blob.
func (rl *Relay) Compactions() uint64 { return rl.compactions.Load() }

// Misses reports requests for versions outside the retained window.
func (rl *Relay) Misses() uint64 { return rl.misses.Load() }

// Manifest describes the relay's serving head. ok is false while the
// window is empty.
func (rl *Relay) Manifest() (Manifest, bool) {
	head, minSeq, ok := rl.window()
	if !ok {
		return Manifest{}, false
	}
	m := Manifest{
		Seq:         head.seq,
		Fingerprint: head.fp,
		Version:     head.list.Version,
		Date:        head.list.Date.UTC(),
		Rules:       head.list.Len(),
		MinSeq:      minSeq,
		Depth:       rl.rep.UpstreamDepth() + 1,
	}
	// Carry the origin's publish stamp downstream unchanged, so every
	// tier's propagation journal measures from the same clock.
	if at, ok := rl.rep.PublishedAt(head.seq); ok {
		m.PublishedAt = at.UTC()
	}
	return m, true
}

// RegisterMetrics attaches the relay's downstream-serving families to a
// registry. The upstream-facing families are the wrapped replica's —
// register those separately via Replica().RegisterMetrics.
func (rl *Relay) RegisterMetrics(r *obs.Registry) {
	rl.register(r, "relay")
	r.MustRegister("psl_dist_relay_compactions_total", "Patches served that coalesced more than one version step.",
		nil, &rl.compactions)
	r.MustRegister("psl_dist_relay_window_misses_total", "Requests for versions outside the retained window.",
		nil, &rl.misses)
	r.MustRegister("psl_dist_relay_unavailable_total", "Requests answered 503 before the first verified install.",
		nil, &rl.unavailable)
	r.MustRegister("psl_dist_relay_retained_snapshots", "Verified snapshots currently in the serving window.",
		nil, obs.GaugeFunc(func() float64 { return float64(rl.Retained()) }))
	r.MustRegister("psl_dist_relay_head_seq", "Version sequence currently served as head, -1 before the first install.",
		nil, obs.GaugeFunc(func() float64 {
			head, _, ok := rl.window()
			if !ok {
				return -1
			}
			return float64(head.seq)
		}))
}

// advertise, lookup, span, rules and patch serve the retained window:
// 503 while it is empty, 404 (and a miss) outside it.
func (rl *Relay) advertise() (Manifest, bool) {
	m, ok := rl.Manifest()
	if !ok {
		rl.unavailable.Add(1)
	}
	return m, ok
}

func (rl *Relay) lookup(seq int) (snapshot, bool) {
	s, ok := rl.snapAt(seq)
	if !ok {
		rl.misses.Add(1)
	}
	return s, ok
}

func (rl *Relay) span(from, to int) (snapshot, snapshot, bool) {
	a, okA := rl.snapAt(from)
	b, okB := rl.snapAt(to)
	if !okA || !okB {
		rl.misses.Add(1)
		return a, b, false
	}
	if to-from > 1 {
		rl.compactions.Add(1)
	}
	return a, b, true
}

func (rl *Relay) rules(s snapshot) *psl.List { return s.list }

// patch builds the single patch taking the retained snapshot at from to
// the one at to, however many upstream version steps that spans. The
// endpoints' fingerprints were verified when the snapshots were
// installed, so the result carries the same chain guarantees as an
// origin patch over the same range — only the delta is recomputed, by
// diffing the two rule sets directly.
func (rl *Relay) patch(from, to snapshot) *Patch {
	d := psl.DiffLists(from.list, to.list)
	return &Patch{
		FromSeq:   from.seq,
		ToSeq:     to.seq,
		FromFP:    from.fp,
		ToFP:      to.fp,
		ToVersion: to.list.Version,
		ToDate:    to.list.Date,
		Removed:   d.Removed,
		Added:     d.Added,
		Moved:     d.Moved,
	}
}
