package dist

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// TestServerRendersOnceUnderConcurrency: concurrent requests for the
// same full, patch and matcher blob on either tier share one render
// each and all receive the same bytes.
func TestServerRendersOnceUnderConcurrency(t *testing.T) {
	h := testHist(t, 30)
	o := NewOrigin(h)
	o.SetHead(9)
	rl := NewRelay(NewReplica("http://unused.invalid", fastOpts()), RelayOptions{})
	for seq := 0; seq <= 9; seq++ {
		rl.Seed(h.ListAt(seq), seq)
	}
	for _, tier := range []struct {
		name string
		srv  *server
	}{{"origin", &o.server}, {"relay", &rl.server}} {
		paths := []string{fullPrefix + "9", patchPrefix + "3/9", blobPrefix + "9"}
		bodies := make([][]byte, 8*len(paths))
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				tier.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
				if rec.Code != http.StatusOK {
					t.Errorf("%s %s: status %d", tier.name, paths[i%len(paths)], rec.Code)
				}
				bodies[i] = rec.Body.Bytes()
			}(i)
		}
		wg.Wait()
		for i := len(paths); i < len(bodies); i++ {
			if !bytes.Equal(bodies[i], bodies[i%len(paths)]) {
				t.Errorf("%s %s: concurrent responses differ", tier.name, paths[i%len(paths)])
			}
		}
		for kind, e := range map[string]*endpoint{"full": &tier.srv.fulls, "patch": &tier.srv.patches, "blob": &tier.srv.blobs} {
			if got := e.renders.Load(); got != 1 {
				t.Errorf("%s %s renders = %d, want 1", tier.name, kind, got)
			}
		}
	}
}

// TestServerRenderCacheBounded: an origin asked for more distinct spans
// than renderCacheCap, twice over, keeps at most renderCacheCap blobs
// per kind, evicts oldest-first (so the cyclic second pass renders
// every span again), and answers every request with the bytes a fresh
// origin renders for it.
func TestServerRenderCacheBounded(t *testing.T) {
	const head = renderCacheCap + 8
	h := testHist(t, head+1)
	o := NewOrigin(h)
	o.SetHead(head)
	var paths []string
	for seq := 0; seq <= head; seq++ {
		paths = append(paths, fullPrefix+strconv.Itoa(seq), blobPrefix+strconv.Itoa(seq))
		if seq < head {
			paths = append(paths, patchPrefix+strconv.Itoa(seq)+"/"+strconv.Itoa(head))
		}
	}
	get := func(srv *server, path string) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	fresh := NewOrigin(h)
	fresh.SetHead(head)
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		want[p] = get(&fresh.server, p)
	}
	endpoints := map[string]*endpoint{"full": &o.fulls, "patch": &o.patches, "blob": &o.blobs}
	for pass := 0; pass < 2; pass++ {
		for _, p := range paths {
			if got := get(&o.server, p); !bytes.Equal(got, want[p]) {
				t.Fatalf("pass %d %s: body differs from a fresh render", pass, p)
			}
			for kind, e := range endpoints {
				e.mu.Lock()
				n, m := len(e.cache), len(e.order)
				e.mu.Unlock()
				if n > renderCacheCap || n != m {
					t.Fatalf("pass %d %s: %s cache holds %d blobs (%d ordered), cap %d", pass, p, kind, n, m, renderCacheCap)
				}
			}
		}
	}
	for kind, e := range endpoints {
		if n, got := e.reqs.Load()/2, e.renders.Load(); got != 2*n {
			t.Errorf("%s: %d renders for %d distinct spans requested twice, want %d", kind, got, n, 2*n)
		}
	}
}
