package dist

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/psl"
)

// HTTP paths the origin serves under Prefix.
const (
	// Prefix is the mount point for the distribution API.
	Prefix = "/dist/"
	// ManifestPath describes the head version.
	ManifestPath = Prefix + "manifest"
	// fullPrefix + "{seq}" serves a full snapshot blob.
	fullPrefix = Prefix + "full/"
	// patchPrefix + "{from}/{to}" serves a delta blob.
	patchPrefix = Prefix + "patch/"
	// blobPrefix + "{seq}" serves a compiled matcher blob ("PSLM").
	blobPrefix = Prefix + "blob/"
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

// Origin publishes a history's versions for replication:
//
//	GET /dist/manifest           -> JSON Manifest of the head version
//	GET /dist/full/{seq}         -> full snapshot blob ("PSLF")
//	GET /dist/patch/{from}/{to}  -> delta blob ("PSLD"), from < to <= head
//
// Manifest and full responses carry strong ETags (the rule-set
// fingerprint) and honour If-None-Match. The head is mutable via
// SetHead so tests and operators can roll the published version
// forward; blobs for every version stay available, which is what lets
// a replica catch up through versions the origin has already passed.
//
// Rendering a blob replays event history, so each one is rendered once
// and cached (the same discipline as fetch.Server's render cache).
type Origin struct {
	h     *history.History
	chain *Chain
	head  atomic.Int64
	// pub stamps when the current head was published; read back into
	// the manifest so downstream journals can anchor timelines at the
	// origin's clock.
	pub     atomic.Pointer[headStamp]
	journal *obs.Journal
	// pubMu serializes Publish: validate-at-tip, append to history,
	// extend the chain and advertise must happen as one unit.
	pubMu sync.Mutex

	patches sync.Map // uint64(from)<<32|to -> *renderedBlob
	fulls   sync.Map // int -> *renderedBlob
	blobs   sync.Map // int -> *renderedBlob (compiled matchers)

	manifestReqs, fullReqs, patchReqs obs.Counter
	patchBytes, fullBytes             obs.Counter
	patchRenders, fullRenders         obs.Counter
	notModified                       obs.Counter
	blobReqs, blobBytes, blobRenders  obs.Counter
}

type renderedBlob struct {
	once sync.Once
	data []byte
	etag string
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
	r.MustRegister("psl_dist_origin_requests_total", "Distribution requests received, by endpoint.",
		obs.Labels{{"endpoint", "manifest"}}, &o.manifestReqs)
	r.MustRegister("psl_dist_origin_requests_total", "Distribution requests received, by endpoint.",
		obs.Labels{{"endpoint", "full"}}, &o.fullReqs)
	r.MustRegister("psl_dist_origin_requests_total", "Distribution requests received, by endpoint.",
		obs.Labels{{"endpoint", "patch"}}, &o.patchReqs)
	r.MustRegister("psl_dist_origin_bytes_total", "Blob bytes served, by transfer kind.",
		obs.Labels{{"kind", "patch"}}, &o.patchBytes)
	r.MustRegister("psl_dist_origin_bytes_total", "Blob bytes served, by transfer kind.",
		obs.Labels{{"kind", "full"}}, &o.fullBytes)
	r.MustRegister("psl_dist_origin_renders_total", "Blobs rendered into the cache, by kind.",
		obs.Labels{{"kind", "patch"}}, &o.patchRenders)
	r.MustRegister("psl_dist_origin_renders_total", "Blobs rendered into the cache, by kind.",
		obs.Labels{{"kind", "full"}}, &o.fullRenders)
	r.MustRegister("psl_dist_origin_not_modified_total", "Conditional requests answered 304 Not Modified.",
		nil, &o.notModified)
	r.MustRegister("psl_dist_blob_requests_total", "Compiled matcher blob requests received.",
		nil, &o.blobReqs)
	r.MustRegister("psl_dist_blob_bytes_total", "Compiled matcher blob bytes served.",
		nil, &o.blobBytes)
	r.MustRegister("psl_dist_blob_renders_total", "Compiled matcher blobs rendered into the cache.",
		nil, &o.blobRenders)
	r.MustRegister("psl_dist_origin_head_seq", "Version sequence currently published as head.",
		nil, obs.GaugeFunc(func() float64 { return float64(o.Head()) }))
}

// ServeHTTP implements http.Handler for paths under Prefix.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == ManifestPath:
		o.serveManifest(w, r)
	case strings.HasPrefix(path, fullPrefix):
		o.serveFull(w, r, strings.TrimPrefix(path, fullPrefix))
	case strings.HasPrefix(path, patchPrefix):
		o.servePatch(w, r, strings.TrimPrefix(path, patchPrefix))
	case strings.HasPrefix(path, blobPrefix):
		o.serveBlob(w, r, strings.TrimPrefix(path, blobPrefix))
	default:
		http.NotFound(w, r)
	}
}

func (o *Origin) serveManifest(w http.ResponseWriter, r *http.Request) {
	o.manifestReqs.Add(1)
	m := o.Manifest()
	etag := `"` + m.Fingerprint + `"`
	if r.Header.Get("If-None-Match") == etag {
		o.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	_, _ = w.Write(EncodeManifest(m))
}

func (o *Origin) serveFull(w http.ResponseWriter, r *http.Request, rest string) {
	o.fullReqs.Add(1)
	seq, err := strconv.Atoi(rest)
	if err != nil || seq < 0 || seq > o.Head() {
		http.NotFound(w, r)
		return
	}
	v, _ := o.fulls.LoadOrStore(seq, &renderedBlob{})
	rb := v.(*renderedBlob)
	rb.once.Do(func() {
		rb.data = EncodeFull(o.h.ListAt(seq), seq)
		rb.etag = `"` + o.chain.Fingerprint(seq) + `"`
		o.fullRenders.Add(1)
		o.journal.Record(seq, obs.StageBlobRendered)
	})
	if r.Header.Get("If-None-Match") == rb.etag {
		o.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", rb.etag)
	n, _ := w.Write(rb.data)
	o.fullBytes.Add(uint64(n))
}

// serveBlob answers /dist/blob/{seq} with the compiled matcher for that
// version, wrapped in the "PSLM" envelope. Compiling is the expensive
// step patch replication exists to amortise, so each version is
// compiled and marshalled exactly once and the rendered blob cached —
// the origin pays one compile per version however many replicas pull
// it, and every replica that trusts the blob pays zero.
func (o *Origin) serveBlob(w http.ResponseWriter, r *http.Request, rest string) {
	o.blobReqs.Add(1)
	seq, err := strconv.Atoi(rest)
	if err != nil || seq < 0 || seq > o.Head() {
		http.NotFound(w, r)
		return
	}
	v, _ := o.blobs.LoadOrStore(seq, &renderedBlob{})
	rb := v.(*renderedBlob)
	rb.once.Do(func() {
		fp := o.chain.Fingerprint(seq)
		pm := psl.NewPackedMatcher(o.h.ListAt(seq))
		rb.data = EncodeMatcherBlob(seq, fp, pm.Marshal())
		rb.etag = `"` + fp + `"`
		o.blobRenders.Add(1)
		o.journal.Record(seq, obs.StageBlobRendered)
	})
	if r.Header.Get("If-None-Match") == rb.etag {
		o.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", rb.etag)
	n, _ := w.Write(rb.data)
	o.blobBytes.Add(uint64(n))
}

func (o *Origin) servePatch(w http.ResponseWriter, r *http.Request, rest string) {
	o.patchReqs.Add(1)
	fromS, toS, ok := strings.Cut(rest, "/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	from, err1 := strconv.Atoi(fromS)
	to, err2 := strconv.Atoi(toS)
	if err1 != nil || err2 != nil || from < 0 || from >= to || to > o.Head() {
		http.NotFound(w, r)
		return
	}
	key := uint64(from)<<32 | uint64(to)
	v, _ := o.patches.LoadOrStore(key, &renderedBlob{})
	rb := v.(*renderedBlob)
	rb.once.Do(func() {
		rb.data = o.chain.Patch(from, to).Encode()
		o.patchRenders.Add(1)
		o.journal.Record(to, obs.StageBlobRendered)
	})
	w.Header().Set("Content-Type", "application/octet-stream")
	n, _ := w.Write(rb.data)
	o.patchBytes.Add(uint64(n))
}
