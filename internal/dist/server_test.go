package dist

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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
