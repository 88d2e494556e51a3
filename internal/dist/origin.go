package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/psl"
)

// Manifest is the origin's head advertisement: which version replicas
// should converge to, and how far back patches reach.
type Manifest struct {
	Seq         int       `json:"seq"`
	Fingerprint string    `json:"fingerprint"`
	Version     string    `json:"version"`
	Date        time.Time `json:"date"`
	Rules       int       `json:"rules"`
	// MinSeq is the oldest version patches can start from: 0 at an
	// origin (every version stays available), the bottom of the
	// retained snapshot window at a relay. A replica whose current seq
	// is below MinSeq cannot patch forward from this upstream and must
	// full-sync.
	MinSeq int `json:"min_seq"`
	// Depth is the server's distance from the authoritative origin: 0
	// at the origin itself, 1 at a relay following it, and so on down
	// an arbitrarily deep fan-out tree.
	Depth int `json:"depth"`
	// PublishedAt is when the origin advertised this head, stamped at
	// SetHead time and carried down the fan-out tree unchanged, so an
	// edge's propagation journal can anchor a seq's timeline at the
	// moment the version was born rather than when the edge first heard
	// of it. Zero when unknown (a pre-stamp upstream, or a relay that
	// never saw the head's manifest).
	PublishedAt time.Time `json:"published_at,omitempty"`
}

// Origin publishes a history's versions for replication over the
// /dist/ protocol (see server). Every version up to the head stays
// available, which is what lets a replica catch up through versions the
// origin has already passed. The head is mutable via SetHead so tests
// and operators can roll the published version forward, and Publish
// appends brand-new versions.
type Origin struct {
	server
	h     *history.History
	chain *Chain
	head  atomic.Int64
	// pub stamps when the current head was published; read back into
	// the manifest so downstream journals can anchor timelines at the
	// origin's clock.
	pub atomic.Pointer[headStamp]
	// pubMu serializes Publish: validate-at-tip, append to history,
	// extend the chain and advertise must happen as one unit.
	pubMu sync.Mutex
}

// headStamp records when a head seq was published.
type headStamp struct {
	seq int
	at  time.Time
}

// NewOrigin builds an origin over h, initially publishing the newest
// version. Building the fingerprint chain walks the whole event history
// once (~1s for the full corpus).
func NewOrigin(h *history.History) *Origin {
	o := &Origin{h: h, chain: NewChain(h)}
	o.src = o
	o.head.Store(int64(h.Len() - 1))
	o.pub.Store(&headStamp{seq: h.Len() - 1, at: time.Now()})
	return o
}

// SetJournal attaches a propagation journal: SetHead records the
// "published" stage and blob renders record "blob_rendered", keyed by
// seq. The current head is journalled immediately so an origin that
// never rolls forward still exposes a timeline. Call before serving.
func (o *Origin) SetJournal(j *obs.Journal) {
	o.journal = j
	if st := o.pub.Load(); st != nil {
		j.RecordAt(st.seq, obs.StagePublished, st.at)
	}
}

// Chain exposes the precomputed fingerprint table.
func (o *Origin) Chain() *Chain { return o.chain }

// History exposes the version corpus the origin serves. The submission
// pipeline reads the tip through it and publishes back via Publish.
func (o *Origin) History() *history.History { return o.h }

// Head reports the currently published version.
func (o *Origin) Head() int { return int(o.head.Load()) }

// SetHead changes the published head version, simulating the origin
// receiving an upstream update. Safe to call while requests are in
// flight.
func (o *Origin) SetHead(seq int) {
	if seq < 0 || seq >= o.h.Len() {
		panic(fmt.Sprintf("dist: head %d out of range [0,%d)", seq, o.h.Len()))
	}
	now := time.Now()
	o.pub.Store(&headStamp{seq: seq, at: now})
	o.head.Store(int64(seq))
	o.journal.RecordAt(seq, obs.StagePublished, now)
}

// Publish appends a brand-new version to the origin's history carrying
// the given rule delta and advertises it as the head. This is the write
// path's terminal stage: an accepted submission lands here and the
// entire replication plane (relays, followers, fleets) picks it up
// through the ordinary manifest/patch/blob machinery.
//
// The delta is validated against the current tip: every removed rule
// must be present and every added rule absent — except when an added
// rule's key is also being removed in the same delta, which is how a
// section move is encoded (ListAt processes removals before additions
// within one event). A delta that leaves the rule-set fingerprint
// unchanged (fingerprints ignore Section, so a pure section move is
// one) is refused: it would advertise a head whose manifest ETag equals
// the previous one, and conditional pollers would never notice it.
//
// On success the new version's manifest is returned; the history, the
// fingerprint chain and the head advance atomically with respect to
// other Publish calls.
func (o *Origin) Publish(date time.Time, added, removed []psl.Rule) (Manifest, error) {
	o.pubMu.Lock()
	defer o.pubMu.Unlock()
	if len(added) == 0 && len(removed) == 0 {
		return Manifest{}, fmt.Errorf("dist: publish: empty delta")
	}
	removedKeys := make(map[string]bool, len(removed))
	for _, r := range removed {
		if !o.chain.tipHas(r) {
			return Manifest{}, fmt.Errorf("dist: publish: removed rule %q not present at head", r.String())
		}
		removedKeys[r.String()] = true
	}
	for _, r := range added {
		if o.chain.tipHas(r) && !removedKeys[r.String()] {
			return Manifest{}, fmt.Errorf("dist: publish: added rule %q already present at head", r.String())
		}
	}
	if o.chain.PreviewFingerprint(added, removed) == o.chain.Fingerprint(o.chain.Len()-1) {
		return Manifest{}, fmt.Errorf("dist: publish: delta does not change the rule-set fingerprint")
	}
	meta := o.h.Append(date, added, removed)
	o.chain.AppendEvent(o.h.Events()[meta.Seq])
	o.SetHead(meta.Seq)
	return o.Manifest(), nil
}

// Manifest describes the current head.
func (o *Origin) Manifest() Manifest {
	head := o.Head()
	meta := o.h.Meta(head)
	m := Manifest{
		Seq:         head,
		Fingerprint: o.chain.Fingerprint(head),
		Version:     meta.Label(),
		Date:        meta.Date.UTC(),
		Rules:       meta.Rules,
		MinSeq:      0,
	}
	// A SetHead racing this read can leave the stamp one store behind;
	// publish time is advisory, so the manifest simply omits it then.
	if st := o.pub.Load(); st != nil && st.seq == head {
		m.PublishedAt = st.at.UTC()
	}
	return m
}

// RegisterMetrics attaches the origin's metric families to a registry.
func (o *Origin) RegisterMetrics(r *obs.Registry) {
	o.register(r, "origin")
	r.MustRegister("psl_dist_origin_head_seq", "Version sequence currently published as head.",
		nil, obs.GaugeFunc(func() float64 { return float64(o.Head()) }))
}

// advertise, lookup, span, rules and patch serve every version up to
// the head.
func (o *Origin) advertise() (Manifest, bool) { return o.Manifest(), true }

func (o *Origin) lookup(seq int) (snapshot, bool) {
	if seq > o.Head() {
		return snapshot{}, false
	}
	return snapshot{seq: seq, fp: o.chain.Fingerprint(seq)}, true
}

func (o *Origin) span(from, to int) (snapshot, snapshot, bool) {
	a, _ := o.lookup(from)
	b, ok := o.lookup(to)
	return a, b, ok
}

// rules replays event history; the server calls it once per render.
func (o *Origin) rules(s snapshot) *psl.List { return o.h.ListAt(s.seq) }

func (o *Origin) patch(from, to snapshot) *Patch { return o.chain.Patch(from.seq, to.seq) }
