package dist

import (
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/psl"
)

// HTTP paths of the distribution API.
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

// server is the one implementation of the /dist/ protocol, embedded by
// Origin and Relay:
//
//	GET /dist/manifest           -> JSON Manifest of the head version
//	GET /dist/full/{seq}         -> full snapshot blob ("PSLF")
//	GET /dist/patch/{from}/{to}  -> delta blob ("PSLD"), from < to
//	GET /dist/blob/{seq}         -> compiled matcher blob ("PSLM")
//
// It owns routing and path parsing, the render caches, the endpoint
// counters and the "blob_rendered" journal record; what a tier serves
// comes from its source. Manifest, full and blob responses carry the
// version's fingerprint as a strong ETag and honour If-None-Match; a
// patch is named by its span and carries none.
//
// Every blob is rendered once per (kind, span) and cached: an origin's
// render replays event history and a blob render compiles a matcher,
// so a tier pays each once however many downstreams pull it. Each
// kind's cache keeps the renderCacheCap spans it added last.
type server struct {
	src     source
	journal *obs.Journal

	fulls, patches, blobs     endpoint
	manifestReqs, notModified obs.Counter
}

// source is what one tier serves: an origin's whole history up to its
// head, or a relay's window of verified snapshots.
type source interface {
	// advertise returns the head manifest; false means nothing is
	// servable yet, answered 503.
	advertise() (Manifest, bool)
	// lookup resolves a seq >= 0; false is answered 404.
	lookup(seq int) (snapshot, bool)
	// span resolves a patch's endpoints, 0 <= from < to; false is
	// answered 404.
	span(from, to int) (snapshot, snapshot, bool)
	// rules returns a snapshot's rule list. Called only inside a render
	// cell, so a source may materialise it lazily.
	rules(s snapshot) *psl.List
	// patch builds the delta between two snapshots. Called only inside
	// a render cell.
	patch(from, to snapshot) *Patch
}

// snapshot is one servable version. list is nil where the source
// materialises rules lazily.
type snapshot struct {
	list *psl.List
	seq  int
	fp   string
}

// renderCacheCap bounds each endpoint's render cache. Any client can
// ask an origin for any span, and a matcher blob at the generated head
// is ~730 KB, so an unbounded cache grows with what clients ask for.
// Blobs are immutable, so a span evicted and asked for again renders
// byte-identical; downstreams pull spans near the head, which are the
// entries added last.
const renderCacheCap = 32

// endpoint is one blob kind's render cache and counters. The cache
// evicts oldest-first: order lists its keys by insertion.
type endpoint struct {
	mu                   sync.Mutex
	cache                map[cacheKey]*renderedBlob
	order                []cacheKey
	reqs, bytes, renders obs.Counter
}

// cacheKey names a rendered blob by the versions it covers: from == to
// for full and matcher blobs.
type cacheKey struct{ from, to int }

type renderedBlob struct {
	once sync.Once
	data []byte
}

// ServeHTTP implements http.Handler for paths under Prefix.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == ManifestPath:
		s.serveManifest(w, r)
	case strings.HasPrefix(path, fullPrefix):
		s.serveVersion(w, r, &s.fulls, strings.TrimPrefix(path, fullPrefix), func(v snapshot) []byte {
			return EncodeFull(s.src.rules(v), v.seq)
		})
	case strings.HasPrefix(path, blobPrefix):
		s.serveVersion(w, r, &s.blobs, strings.TrimPrefix(path, blobPrefix), func(v snapshot) []byte {
			return EncodeMatcherBlob(v.seq, v.fp, psl.NewPackedMatcher(s.src.rules(v)).Marshal())
		})
	case strings.HasPrefix(path, patchPrefix):
		s.servePatch(w, r, strings.TrimPrefix(path, patchPrefix))
	default:
		http.NotFound(w, r)
	}
}

func (s *server) serveManifest(w http.ResponseWriter, r *http.Request) {
	s.manifestReqs.Add(1)
	m, ok := s.src.advertise()
	if !ok {
		http.Error(w, "relay has no verified snapshot yet", http.StatusServiceUnavailable)
		return
	}
	etag := `"` + m.Fingerprint + `"`
	if s.fresh(w, r, etag) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	_, _ = w.Write(EncodeManifest(m))
}

// serveVersion answers a full or matcher blob request for one seq.
func (s *server) serveVersion(w http.ResponseWriter, r *http.Request, e *endpoint, rest string, render func(snapshot) []byte) {
	e.reqs.Add(1)
	seq, ok := parseSeq(rest)
	var v snapshot
	if ok {
		v, ok = s.src.lookup(seq)
	}
	if !ok {
		http.NotFound(w, r)
		return
	}
	data := s.render(e, cacheKey{seq, seq}, func() []byte { return render(v) })
	etag := `"` + v.fp + `"`
	if s.fresh(w, r, etag) {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", etag)
	n, _ := w.Write(data)
	e.bytes.Add(uint64(n))
}

func (s *server) servePatch(w http.ResponseWriter, r *http.Request, rest string) {
	s.patches.reqs.Add(1)
	fromS, toS, _ := strings.Cut(rest, "/")
	from, okF := parseSeq(fromS)
	to, okT := parseSeq(toS)
	var a, b snapshot
	ok := okF && okT && from < to
	if ok {
		a, b, ok = s.src.span(from, to)
	}
	if !ok {
		http.NotFound(w, r)
		return
	}
	data := s.render(&s.patches, cacheKey{from, to}, func() []byte { return s.src.patch(a, b).Encode() })
	w.Header().Set("Content-Type", "application/octet-stream")
	n, _ := w.Write(data)
	s.patches.bytes.Add(uint64(n))
}

// render returns the cached blob for key, rendering it on first use
// and journalling "blob_rendered" against the version it reaches.
func (s *server) render(e *endpoint, key cacheKey, fn func() []byte) []byte {
	e.mu.Lock()
	rb, ok := e.cache[key]
	if !ok {
		if e.cache == nil {
			e.cache = make(map[cacheKey]*renderedBlob, renderCacheCap)
		}
		if len(e.order) == renderCacheCap {
			delete(e.cache, e.order[0])
			e.order = e.order[1:]
		}
		rb = &renderedBlob{}
		e.cache[key] = rb
		e.order = append(e.order, key)
	}
	e.mu.Unlock()
	rb.once.Do(func() {
		rb.data = fn()
		e.renders.Add(1)
		s.journal.Record(key.to, obs.StageBlobRendered)
	})
	return rb.data
}

// fresh answers 304 when the request already holds etag.
func (s *server) fresh(w http.ResponseWriter, r *http.Request, etag string) bool {
	if r.Header.Get("If-None-Match") != etag {
		return false
	}
	s.notModified.Add(1)
	w.WriteHeader(http.StatusNotModified)
	return true
}

func parseSeq(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0
}

// register attaches the endpoint families under psl_dist_{tier}_…; the
// matcher blob families are shared by every tier.
func (s *server) register(r *obs.Registry, tier string) {
	reqHelp, bytesHelp := "Distribution requests received, by endpoint.", "Blob bytes served, by transfer kind."
	if tier == "relay" {
		reqHelp, bytesHelp = "Downstream distribution requests received, by endpoint.", "Blob bytes served downstream, by transfer kind."
	}
	name := "psl_dist_" + tier + "_"
	r.MustRegister(name+"requests_total", reqHelp, obs.Labels{{"endpoint", "manifest"}}, &s.manifestReqs)
	r.MustRegister(name+"requests_total", reqHelp, obs.Labels{{"endpoint", "full"}}, &s.fulls.reqs)
	r.MustRegister(name+"requests_total", reqHelp, obs.Labels{{"endpoint", "patch"}}, &s.patches.reqs)
	r.MustRegister(name+"bytes_total", bytesHelp, obs.Labels{{"kind", "patch"}}, &s.patches.bytes)
	r.MustRegister(name+"bytes_total", bytesHelp, obs.Labels{{"kind", "full"}}, &s.fulls.bytes)
	r.MustRegister(name+"renders_total", "Blobs rendered into the cache, by kind.",
		obs.Labels{{"kind", "patch"}}, &s.patches.renders)
	r.MustRegister(name+"renders_total", "Blobs rendered into the cache, by kind.",
		obs.Labels{{"kind", "full"}}, &s.fulls.renders)
	r.MustRegister(name+"not_modified_total", "Conditional requests answered 304 Not Modified.",
		nil, &s.notModified)
	r.MustRegister("psl_dist_blob_requests_total", "Compiled matcher blob requests received.",
		nil, &s.blobs.reqs)
	r.MustRegister("psl_dist_blob_bytes_total", "Compiled matcher blob bytes served.",
		nil, &s.blobs.bytes)
	r.MustRegister("psl_dist_blob_renders_total", "Compiled matcher blobs rendered into the cache.",
		nil, &s.blobs.renders)
}
