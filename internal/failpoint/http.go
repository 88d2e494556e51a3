package failpoint

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Wrap returns h behind the site's HTTP actions. Disarmed, a request
// costs two atomic loads on top of h and allocates nothing. Armed, each
// request draws one decision and the firing action is rendered the way
// a real network fault looks to the client; only truncate and bitflip
// buffer h's response, so they damage the real headers and body.
func (f *Failpoint) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.armed.Load() {
			if observing.Load() {
				f.hits.Add(1)
			}
			h.ServeHTTP(w, r)
			return
		}
		f.serve(w, r, h)
	})
}

// serve renders one armed decision around h.
func (f *Failpoint) serve(w http.ResponseWriter, r *http.Request, h http.Handler) {
	a, ok, flipSeed := f.decide()
	if !ok {
		h.ServeHTTP(w, r)
		return
	}
	switch a.kind {
	case kindDelay:
		if sleep(r.Context(), a.ms) {
			h.ServeHTTP(w, r)
		}
	case kindReset:
		panic(http.ErrAbortHandler)
	case kindStall:
		sleep(r.Context(), a.ms)
		panic(http.ErrAbortHandler)
	case kindStatus:
		http.Error(w, "failpoint: injected outage at "+f.name, http.StatusServiceUnavailable)
	case kindTruncate, kindBitflip:
		buf := &bufferedResponse{header: make(http.Header), code: http.StatusOK}
		h.ServeHTTP(buf, r)
		body := buf.body.Bytes()
		hdr := w.Header()
		for k, vs := range buf.header {
			hdr[k] = vs
		}
		hdr.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(buf.code)
		if a.kind == kindBitflip {
			flip(body, flipSeed)
			_, _ = w.Write(body)
			return
		}
		// Truncate: promise the whole body, deliver half, cut the line.
		_, _ = w.Write(body[:len(body)/2])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	default:
		// err and crash have no HTTP rendering.
		h.ServeHTTP(w, r)
	}
}

// sleep waits ms milliseconds, false when the request ended first.
func sleep(ctx context.Context, ms int) bool {
	t := time.NewTimer(time.Duration(ms) * time.Millisecond)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// flip damages a handful of bytes at positions drawn from seed; XOR
// with a non-zero constant guarantees every touched byte changes.
func flip(body []byte, seed int64) {
	if len(body) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1+len(body)/256; i++ {
		body[rng.Intn(len(body))] ^= 0x5a
	}
}

// bufferedResponse captures a handler's response so it can be damaged
// before anything reaches the wire.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) { b.code = code }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }
