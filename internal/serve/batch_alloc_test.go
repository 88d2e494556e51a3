package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// nullResponseWriter discards the response body so the allocation
// measurement sees only the serving path, not recorder buffer growth.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestBatchRowsZeroAllocWithMiddleware is the batch-path allocation
// guard: once the scratch pools are grown, adding rows of canonical
// hosts to a batch must add ZERO allocations — each row resolves a view
// into the request buffer without copying it and appends its answer
// into pooled buffers. Fixed per-request costs (request construction,
// middleware wrappers, headers) are factored out by measuring two
// batch sizes and requiring the marginal cost of the extra rows to be
// exactly zero, with the production middleware stack installed.
func TestBatchRowsZeroAllocWithMiddleware(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so marginal allocation counts are noise; the guard asserts in the non-race run")
	}
	svc := New(fixture(t), -1, Options{})
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	hm := &resilience.HTTPMetrics{}
	hm.Register(reg)
	wrapped := resilience.Recover(&hm.Panics,
		resilience.Deadline(30*time.Second, &hm.DeadlineExceeded, svc.Handler()))

	base := []string{
		"www.example.com", "b.c.kobe.jp", "a.example.co.uk", "gov.uk",
		"myblog.blogspot.com", "www.www.ck", "test.k12.ak.us", "deep.unlisted.zone",
	}
	const small, large = 128, 512
	hosts := make([]string, large)
	for i := range hosts {
		hosts[i] = base[i%len(base)]
	}
	payloadSmall := []byte(strings.Join(hosts[:small], "\n") + "\n")
	payloadLarge := []byte(strings.Join(hosts, "\n") + "\n")

	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, BatchPath, nil)
	w := &nullResponseWriter{h: make(http.Header, 8)}
	serve := func(payload []byte) {
		rd.Reset(payload)
		req.Body = io.NopCloser(rd)
		req.ContentLength = int64(len(payload))
		wrapped.ServeHTTP(w, req)
	}

	// Grow the pooled scratch buffers to the large batch's working-set
	// size, and check they got there: a pool still handing out small
	// buffers would charge their growth to the extra rows.
	rec := httptest.NewRecorder()
	wrapped.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(payloadLarge)))
	outLen := rec.Body.Len()
	pooled := func() bool {
		sc := batchScratchPool.Get().(*batchScratch)
		defer batchScratchPool.Put(sc)
		return cap(sc.body) >= len(payloadLarge) && cap(sc.out) >= outLen
	}
	warm := false
	for i := 0; i < 16 && !warm; i++ {
		serve(payloadLarge)
		warm = i >= 7 && pooled()
	}
	if !warm {
		t.Fatalf("warmup did not leave a pooled scratch of %d body and %d response bytes", len(payloadLarge), outLen)
	}

	aSmall := testing.AllocsPerRun(100, func() { serve(payloadSmall) })
	aLarge := testing.AllocsPerRun(100, func() { serve(payloadLarge) })
	if marginal := aLarge - aSmall; marginal != 0 {
		t.Errorf("adding %d rows to a batch allocates %.1f extra allocs (batch %d: %.1f, batch %d: %.1f), want 0",
			large-small, marginal, small, aSmall, large, aLarge)
	}
}

// TestLookupBatchZeroAllocPerRow pins the in-process API the same way:
// with canonical hosts and a pre-sized destination slice, per-row cost
// is zero allocations.
func TestLookupBatchZeroAllocPerRow(t *testing.T) {
	svc := New(fixture(t), -1, Options{})
	hosts := []string{"www.example.com", "b.c.kobe.jp", "a.example.co.uk", "gov.uk", "www.www.ck"}
	dst := make([]Answer, 0, len(hosts))
	if n := testing.AllocsPerRun(200, func() {
		dst = svc.LookupBatch(hosts, dst[:0])
	}); n != 0 {
		t.Errorf("LookupBatch allocates %.1f/op, want 0", n)
	}
}
