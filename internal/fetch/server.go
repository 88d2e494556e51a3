// Package fetch implements the list-updating behaviours the paper's
// Table 1 taxonomy describes — fixed, build-time, on-startup, and
// periodic updating, each falling back to an embedded copy when the
// network fails — together with an HTTP server that publishes
// historical list versions (a stand-in for publicsuffix.org).
//
// The server answers behind the fetch.list failpoint site, so arming
// it (for example `fetch.list=status(1)`) lets the examples and tests
// reproduce the paper's core risk scenario: an "updated" project whose
// update silently fails and which continues running on its stale
// embedded copy.
package fetch

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/history"
	"repro/internal/obs"
)

// fpList is the network-fault site every Server answers behind; see
// internal/failpoint for its HTTP actions.
var fpList = failpoint.NewHTTP("fetch.list")

// ListPath is the canonical request path for the current list, matching
// the upstream layout.
const ListPath = "/list/public_suffix_list.dat"

// renderCacheCap bounds the render cache. A rendered version is ~66 KB
// and any client can ask for any of them, so an unbounded cache grows
// with what clients walk. Rendering is deterministic, so a version
// evicted and asked for again renders byte-identical, with the same
// ETag.
const renderCacheCap = 32

// renderedVersion is one list version serialized once and reused by
// every request: body bytes, strong ETag and Last-Modified time. The
// once gate makes concurrent first requests for a version render it a
// single time.
type renderedVersion struct {
	once     sync.Once
	body     []byte
	etag     string
	modified time.Time
}

// Server publishes a history's list versions over HTTP.
//
//	GET /list/public_suffix_list.dat   -> the "current" version
//	GET /v/<seq>                       -> a specific version
//
// Responses carry ETag (the rule-set fingerprint) and Last-Modified
// headers and honour If-None-Match / If-Modified-Since.
//
// SetCurrent is safe to call while requests are in flight, as is
// arming or disarming the fetch.list site: a request observes the
// current version at one instant, and the response body for whatever
// version it reads is immutable.
type Server struct {
	h *history.History

	current  atomic.Int64 // version served at ListPath
	inner    http.Handler // serve path behind the fetch.list site
	requests obs.Counter

	// render-cache telemetry: renders counts versions serialized (cache
	// fills), renderHits requests answered from an already-rendered
	// version, notModified conditional requests short-circuited to 304.
	renders     obs.Counter
	renderHits  obs.Counter
	notModified obs.Counter

	// rendered caches the serialized body and validators of the last
	// renderCacheCap versions asked for, evicting oldest-first: order
	// lists its keys by insertion. Materialising a version replays the
	// whole event history, so doing it once per version (not once per
	// request) is what lets the server sustain concurrent load.
	mu       sync.Mutex
	rendered map[int]*renderedVersion
	order    []int
}

// NewServer creates a server initially publishing the newest version.
func NewServer(h *history.History) *Server {
	s := &Server{h: h, rendered: make(map[int]*renderedVersion, renderCacheCap)}
	s.inner = fpList.Wrap(http.HandlerFunc(s.serve))
	s.current.Store(int64(h.Len() - 1))
	return s
}

// SetCurrent changes which version the canonical path serves, so tests
// can simulate the passage of time. Safe to call concurrently with
// in-flight requests.
func (s *Server) SetCurrent(seq int) {
	if seq < 0 || seq >= s.h.Len() {
		panic(fmt.Sprintf("fetch: version %d out of range", seq))
	}
	s.current.Store(int64(seq))
}

// Current reports the version currently served at ListPath.
func (s *Server) Current() int {
	return int(s.current.Load())
}

// Requests reports the raw-list requests this server received,
// injected failures included. The faults themselves are counted per
// site, process-wide: failpoint.Triggers("fetch.list").
func (s *Server) Requests() int {
	return int(s.requests.Load())
}

// RegisterMetrics attaches the raw-list server's metric families to a
// registry: the request counter, per-version render cache hit/fill
// counters, and conditional-request short circuits. Injected faults
// are psl_failpoint_triggers_total{name="fetch.list"}.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	r.MustRegister("psl_fetch_requests_total", "Raw-list requests received (including injected failures).", nil, &s.requests)
	r.MustRegister("psl_fetch_renders_total", "List versions serialized into the render cache.", nil, &s.renders)
	r.MustRegister("psl_fetch_render_cache_hits_total", "Requests served from an already-rendered version.", nil, &s.renderHits)
	r.MustRegister("psl_fetch_not_modified_total", "Conditional requests answered 304 Not Modified.", nil, &s.notModified)
}

// render returns the cached serialization of version seq, building it
// on first use.
func (s *Server) render(seq int) *renderedVersion {
	s.mu.Lock()
	rv, ok := s.rendered[seq]
	if !ok {
		if len(s.order) == renderCacheCap {
			delete(s.rendered, s.order[0])
			s.order = s.order[1:]
		}
		rv = &renderedVersion{}
		s.rendered[seq] = rv
		s.order = append(s.order, seq)
	}
	s.mu.Unlock()
	filled := false
	rv.once.Do(func() {
		l := s.h.ListAt(seq)
		rv.body = []byte(l.Serialize())
		rv.etag = `"` + l.Fingerprint() + `"`
		rv.modified = s.h.Meta(seq).Date.UTC()
		filled = true
	})
	if filled {
		s.renders.Add(1)
	} else {
		s.renderHits.Add(1)
	}
	return rv
}

// ServeHTTP implements http.Handler: every request is counted, then
// routed through the fetch.list site before the real serve path.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inner.ServeHTTP(w, r)
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	seq := s.Current()
	switch {
	case r.URL.Path == ListPath:
		// seq stays as the configured current version.
	case strings.HasPrefix(r.URL.Path, "/v/"):
		n, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/v/"))
		if err != nil || n < 0 || n >= s.h.Len() {
			http.NotFound(w, r)
			return
		}
		seq = n
	default:
		http.NotFound(w, r)
		return
	}

	rv := s.render(seq)

	if match := r.Header.Get("If-None-Match"); match != "" && match == rv.etag {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if since := r.Header.Get("If-Modified-Since"); since != "" {
		if t, err := http.ParseTime(since); err == nil && !rv.modified.After(t) {
			s.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("ETag", rv.etag)
	w.Header().Set("Last-Modified", rv.modified.Format(http.TimeFormat))
	if r.Method == http.MethodHead {
		return
	}
	// A short write means the client went away; nothing to do.
	_, _ = w.Write(rv.body)
}
