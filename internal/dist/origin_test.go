package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/history"
	"repro/internal/obs"
)

// testHistory is shared across origin/replica tests; generating even a
// small history is not free, so build each size once.
var (
	histMu    sync.Mutex
	histCache = map[int]*history.History{}
)

func testHist(t testing.TB, versions int) *history.History {
	t.Helper()
	histMu.Lock()
	defer histMu.Unlock()
	h, ok := histCache[versions]
	if !ok {
		h = history.Generate(history.Config{Versions: versions})
		histCache[versions] = h
	}
	return h
}

func getBody(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header
}

func TestOriginManifest(t *testing.T) {
	h := testHist(t, 50)
	o := NewOrigin(h)
	ts := httptest.NewServer(o)
	defer ts.Close()

	status, body, hdr := getBody(t, ts.URL+ManifestPath)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m.Seq != 49 || m.Rules != h.Meta(49).Rules || m.Version != h.Meta(49).Label() {
		t.Fatalf("manifest %+v", m)
	}
	if m.Fingerprint != o.Chain().Fingerprint(49) {
		t.Fatalf("manifest fingerprint mismatch")
	}

	// Conditional request short-circuits on the ETag.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+ManifestPath, nil)
	req.Header.Set("If-None-Match", hdr.Get("ETag"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("conditional GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status %d, want 304", resp.StatusCode)
	}

	// Rolling the head back changes the manifest and its ETag.
	o.SetHead(10)
	status, body, hdr2 := getBody(t, ts.URL+ManifestPath)
	if status != http.StatusOK {
		t.Fatalf("status after SetHead %d", status)
	}
	if err := json.Unmarshal(body, &m); err != nil || m.Seq != 10 {
		t.Fatalf("manifest after SetHead: %+v err %v", m, err)
	}
	if hdr2.Get("ETag") == hdr.Get("ETag") {
		t.Fatalf("ETag unchanged after head change")
	}
}

// TestDecodeManifestStrict: damage that leaves a manifest valid JSON —
// a flipped key, a dropped seq, bytes after the object — is corrupt,
// never a manifest with a zero field.
func TestDecodeManifestStrict(t *testing.T) {
	h := testHist(t, 20)
	o := NewOrigin(h)
	good := EncodeManifest(o.Manifest())
	if _, err := DecodeManifest(good); err != nil {
		t.Fatalf("intact manifest: %v", err)
	}
	for name, data := range map[string]string{
		"flipped seq key":   strings.Replace(string(good), `"seq"`, `"s?q"`, 1),
		"flipped other key": strings.Replace(string(good), `"rules"`, `"r?les"`, 1),
		"no seq":            strings.Replace(string(good), `"seq":19,`, ``, 1),
		"trailing data":     string(good) + `{}`,
	} {
		if data == string(good) {
			t.Fatalf("%s: the damage did not apply to %s", name, good)
		}
		if _, err := DecodeManifest([]byte(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestOriginFullBlob(t *testing.T) {
	h := testHist(t, 50)
	o := NewOrigin(h)
	ts := httptest.NewServer(o)
	defer ts.Close()

	status, body, _ := getBody(t, ts.URL+fullPrefix+"17")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	f, err := DecodeFull(body)
	if err != nil {
		t.Fatalf("DecodeFull: %v", err)
	}
	l, err := f.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if want := h.ListAt(17); l.Serialize() != want.Serialize() {
		t.Fatalf("full blob materialises a different list")
	}
}

func TestOriginPatchEndpoint(t *testing.T) {
	h := testHist(t, 50)
	o := NewOrigin(h)
	ts := httptest.NewServer(o)
	defer ts.Close()

	status, body, _ := getBody(t, ts.URL+patchPrefix+"5/30")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	p, err := DecodePatch(body)
	if err != nil {
		t.Fatalf("DecodePatch: %v", err)
	}
	applied, err := p.Apply(h.ListAt(5), "")
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if want := h.ListAt(30); applied.Serialize() != want.Serialize() {
		t.Fatalf("patched list differs from ListAt(30)")
	}
}

func TestOriginRejectsBadPaths(t *testing.T) {
	h := testHist(t, 50)
	o := NewOrigin(h)
	o.SetHead(20)
	ts := httptest.NewServer(o)
	defer ts.Close()

	for _, path := range []string{
		Prefix,                  // bare prefix
		Prefix + "nope",         // unknown endpoint
		fullPrefix + "x",        // non-numeric
		fullPrefix + "21",       // beyond head
		fullPrefix + "-1",       // negative
		patchPrefix + "5",       // missing "to"
		patchPrefix + "5/5",     // empty range
		patchPrefix + "9/8",     // backwards
		patchPrefix + "5/21",    // beyond head
		patchPrefix + "-1/3",    // negative
		patchPrefix + "a/b",     // non-numeric
		patchPrefix + "5/6/7",   // extra segment
		Prefix + "patch/5/6%20", // junk suffix
	} {
		status, _, _ := getBody(t, ts.URL+path)
		if status != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, status)
		}
	}
}

// TestOriginRejectsEqualPatchEndpoints pins the empty-range rule on its
// own: a from == to patch request is meaningless (the codec refuses to
// decode such a patch, see TestDecodePatch rejections) and the origin
// must 404 it at every seq rather than render a zero-op blob.
func TestOriginRejectsEqualPatchEndpoints(t *testing.T) {
	h := testHist(t, 50)
	o := NewOrigin(h)
	o.SetHead(30)
	ts := httptest.NewServer(o)
	defer ts.Close()

	for _, seq := range []int{0, 1, 15, 30} {
		path := fmt.Sprintf("%s%d/%d", patchPrefix, seq, seq)
		status, _, _ := getBody(t, ts.URL+path)
		if status != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 for an empty range", path, status)
		}
	}
}

func TestOriginMetricsAndRenderCache(t *testing.T) {
	h := testHist(t, 50)
	o := NewOrigin(h)
	reg := obs.NewRegistry()
	o.RegisterMetrics(reg)
	ts := httptest.NewServer(o)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		getBody(t, ts.URL+patchPrefix+"0/49")
		getBody(t, ts.URL+fullPrefix+"49")
	}
	getBody(t, ts.URL+ManifestPath)

	if got := o.patches.renders.Load(); got != 1 {
		t.Errorf("patch renders = %d, want 1 (cache must absorb repeats)", got)
	}
	if got := o.fulls.renders.Load(); got != 1 {
		t.Errorf("full renders = %d, want 1", got)
	}
	if got := o.patches.reqs.Load(); got != 3 {
		t.Errorf("patch requests = %d, want 3", got)
	}

	exp := reg.Render()
	for _, fam := range []string{
		"psl_dist_origin_requests_total",
		"psl_dist_origin_bytes_total",
		"psl_dist_origin_renders_total",
		"psl_dist_origin_not_modified_total",
		"psl_dist_origin_head_seq",
	} {
		if !strings.Contains(exp, fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
	if _, err := obs.ValidateExposition(strings.NewReader(exp)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}
