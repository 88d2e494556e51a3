package fetch

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/failpoint"
)

// TestServerKnobsSafeUnderLoad is the -race regression for the server's
// mutable state: SetCurrent and the fetch.list site's arming churn
// while many clients fetch concurrently, and every 200 body must parse to a
// version the server could legitimately have been serving.
func TestServerKnobsSafeUnderLoad(t *testing.T) {
	s := NewServer(testHistory)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The knob churner flips every mutable knob the public API exposes.
	const flips = 150
	versions := []int{0, testHistory.Len() / 3, testHistory.Len() / 2, testHistory.Len() - 1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < flips; i++ {
			s.SetCurrent(versions[i%len(versions)])
			spec := fmt.Sprintf("fetch.list=status(%v)", float64(i%4)*0.1)
			if i%10 == 0 {
				spec = "fetch.list=status(1,limit=1)"
			}
			if err := failpoint.Arm(spec, int64(i)); err != nil {
				t.Error(err)
			}
		}
		failpoint.Disarm("fetch.list")
	}()

	// Valid bodies, by length: the knob values above are the only
	// versions ListPath may serve.
	wantRules := make(map[int]bool, len(versions))
	for _, v := range versions {
		wantRules[testHistory.Meta(v).Rules] = true
	}

	var wg sync.WaitGroup
	client := ts.Client()
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				path := ListPath
				if i%3 == 0 {
					path = "/v/" + strconv.Itoa(versions[i%len(versions)])
				}
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if len(body) == 0 {
						t.Errorf("empty 200 body for %s", path)
						return
					}
				case http.StatusServiceUnavailable:
					// injected failure; fine.
				default:
					t.Errorf("unexpected status %s for %s", resp.Status, path)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	<-done

	// After the dust settles the canonical path must serve the last
	// configured version, whole and parseable.
	failpoint.Disarm("fetch.list")
	c := NewClient(ts.URL + ListPath)
	l, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !wantRules[l.Len()] {
		t.Errorf("final list has %d rules, not a configured version", l.Len())
	}
	reqs, fails := s.Requests(), int(failpoint.Triggers("fetch.list"))
	if reqs < 16*40 {
		t.Errorf("stats report %d requests, want >= %d", reqs, 16*40)
	}
	if fails < 0 || fails > reqs {
		t.Errorf("stats report %d failures of %d requests", fails, reqs)
	}
}

// TestServerRenderCacheConsistent checks the per-version render cache
// serves byte-identical bodies and validators across repeated and
// concurrent requests.
func TestServerRenderCacheConsistent(t *testing.T) {
	s := NewServer(testHistory)
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func() (string, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v/10")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("ETag"), body
	}

	type result struct {
		etag string
		body string
	}
	results := make([]result, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			etag, body := get()
			results[i] = result{etag, string(body)}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("request %d served different bytes or ETag", i)
		}
	}
	if results[0].etag == "" || len(results[0].body) == 0 {
		t.Fatal("empty ETag or body")
	}
}

// TestServerCurrentAccessor pins the new Current() accessor.
func TestServerCurrentAccessor(t *testing.T) {
	s := NewServer(testHistory)
	if got := s.Current(); got != testHistory.Len()-1 {
		t.Errorf("Current() = %d, want newest %d", got, testHistory.Len()-1)
	}
	s.SetCurrent(5)
	if got := s.Current(); got != 5 {
		t.Errorf("Current() = %d after SetCurrent(5)", got)
	}
}

// TestServerRenderCacheBounded: a server asked for more distinct
// versions than renderCacheCap, twice over, keeps at most
// renderCacheCap rendered versions, evicts oldest-first (so the cyclic
// second pass renders every version again), and answers every request
// with the body and ETag a fresh server renders for it.
func TestServerRenderCacheBounded(t *testing.T) {
	const versions = renderCacheCap + 8
	get := func(s *Server, seq int) (string, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v/"+strconv.Itoa(seq), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/v/%d: status %d", seq, rec.Code)
		}
		return rec.Header().Get("ETag"), rec.Body.String()
	}
	fresh := NewServer(testHistory)
	wantETag, wantBody := make([]string, versions), make([]string, versions)
	for seq := range wantBody {
		wantETag[seq], wantBody[seq] = get(fresh, seq)
	}
	s := NewServer(testHistory)
	for pass := 0; pass < 2; pass++ {
		for seq := 0; seq < versions; seq++ {
			if etag, body := get(s, seq); etag != wantETag[seq] || body != wantBody[seq] {
				t.Fatalf("pass %d /v/%d: body or ETag differs from a fresh render", pass, seq)
			}
			s.mu.Lock()
			n, m := len(s.rendered), len(s.order)
			s.mu.Unlock()
			if n > renderCacheCap || n != m {
				t.Fatalf("pass %d /v/%d: cache holds %d versions (%d ordered), cap %d", pass, seq, n, m, renderCacheCap)
			}
		}
	}
	if got := s.renders.Load(); got != 2*versions {
		t.Errorf("%d renders for %d distinct versions requested twice, want %d", got, versions, 2*versions)
	}
}
