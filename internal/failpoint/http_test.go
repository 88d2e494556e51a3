package failpoint

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

const testBody = "0123456789abcdefghijklmnopqrstuvwxyz-PAYLOAD-0123456789"

// testUpstream serves a fixed body with an ETag and honors
// If-None-Match, mimicking the dist origin's conditional handling.
var testUpstream = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/missing" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("ETag", `"v1"`)
	w.Header().Set("Content-Type", "application/octet-stream")
	if r.Header.Get("If-None-Match") == `"v1"` {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	io.WriteString(w, testBody)
})

// wrapped serves testUpstream behind the HTTP site name, armed with
// spec (when non-empty) at base seed 1.
func wrapped(t *testing.T, name, spec string) (*Failpoint, *httptest.Server) {
	t.Helper()
	reset(t)
	fp := NewHTTP(name)
	if spec != "" {
		if err := Arm(name+"="+spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(fp.Wrap(testUpstream))
	t.Cleanup(ts.Close)
	return fp, ts
}

func get(t *testing.T, client *http.Client, url string, hdr map[string]string) (*http.Response, []byte, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func TestWrapTransparentWhenDisarmed(t *testing.T) {
	fp, ts := wrapped(t, "test.http.transparent", "")
	resp, body, err := get(t, http.DefaultClient, ts.URL+"/dist/manifest", nil)
	if err != nil {
		t.Fatalf("GET through a disarmed site: %v", err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != testBody {
		t.Fatalf("got %d %q, want 200 with the inner body", resp.StatusCode, body)
	}
	if resp.Header.Get("ETag") != `"v1"` {
		t.Fatalf("ETag %q not passed through", resp.Header.Get("ETag"))
	}
	// Conditional requests flow through in both directions.
	resp, _, err = get(t, http.DefaultClient, ts.URL+"/x", map[string]string{"If-None-Match": `"v1"`})
	if err != nil || resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %v status %d, want 304", err, resp.StatusCode)
	}
	// Inner error statuses pass through too.
	resp, _, err = get(t, http.DefaultClient, ts.URL+"/missing", nil)
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /missing = %v status %d, want 404", err, resp.StatusCode)
	}
	if fp.Triggers() != 0 {
		t.Fatalf("disarmed site fired %d times", fp.Triggers())
	}
}

func TestHTTPDelayServesIntactResponse(t *testing.T) {
	fp, ts := wrapped(t, "test.http.delay", "delay(1,ms=60)")
	start := time.Now()
	resp, body, err := get(t, http.DefaultClient, ts.URL+"/a", nil)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("response arrived in %v, want >= 60ms of injected delay", elapsed)
	}
	if resp.StatusCode != http.StatusOK || string(body) != testBody {
		t.Fatalf("delay damaged the response: %d %q", resp.StatusCode, body)
	}
	if fp.Triggers() == 0 {
		t.Fatal("delay not counted")
	}
}

func TestHTTPResetAbortsConnection(t *testing.T) {
	fp, ts := wrapped(t, "test.http.reset", "reset(1)")
	if _, _, err := get(t, http.DefaultClient, ts.URL+"/a", nil); err == nil {
		t.Fatal("reset produced a whole response")
	}
	if fp.Triggers() == 0 {
		t.Fatal("reset not counted")
	}
}

func TestHTTPTruncateCutsMidBody(t *testing.T) {
	fp, ts := wrapped(t, "test.http.truncate", "truncate(1)")
	resp, body, err := get(t, http.DefaultClient, ts.URL+"/a", nil)
	if resp == nil {
		t.Fatalf("no response at all: %v", err)
	}
	if resp.ContentLength != int64(len(testBody)) {
		t.Fatalf("Content-Length = %d, want the full %d", resp.ContentLength, len(testBody))
	}
	// The status and Content-Length promise the whole body; the read
	// must fail with fewer bytes than promised.
	if err == nil || len(body) >= len(testBody) {
		t.Fatalf("truncate delivered %d bytes, err %v; want a short read error", len(body), err)
	}
	if fp.Triggers() == 0 {
		t.Fatal("truncate not counted")
	}
}

func TestHTTPBitflipCorruptsSilently(t *testing.T) {
	_, ts := wrapped(t, "test.http.bitflip", "bitflip(1)")
	resp, body, err := get(t, http.DefaultClient, ts.URL+"/a", nil)
	if err != nil {
		t.Fatalf("GET: %v (bitflip must look healthy on the wire)", err)
	}
	if resp.StatusCode != http.StatusOK || len(body) != len(testBody) {
		t.Fatalf("got %d with %d bytes, want a healthy-looking 200 of %d bytes",
			resp.StatusCode, len(body), len(testBody))
	}
	if string(body) == testBody {
		t.Fatal("bitflip left the body intact")
	}
}

func TestHTTPStatusBurst(t *testing.T) {
	fp, ts := wrapped(t, "test.http.status", "status(0.5,limit=3)")
	before := fp.Triggers()
	// Hit until the first fire; the burst must then poison the next two
	// responses without a fresh draw, and limit=3 ends it there.
	var codes []int
	for i := 0; i < 40; i++ {
		resp, _, err := get(t, http.DefaultClient, ts.URL+"/a", nil)
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		codes = append(codes, resp.StatusCode)
	}
	first := -1
	for i, c := range codes {
		if c == http.StatusServiceUnavailable {
			first = i
			break
		}
	}
	if first < 0 || first+3 > len(codes) {
		t.Fatalf("no complete burst in %v", codes)
	}
	for i, c := range codes {
		want := http.StatusOK
		if i >= first && i < first+3 {
			want = http.StatusServiceUnavailable
		}
		if c != want {
			t.Fatalf("response %d = %d, want %d (burst starts at %d): %v", i, c, want, first, codes)
		}
	}
	if got := fp.Triggers() - before; got != 3 {
		t.Fatalf("status fires counted = %d, want 3 (1 + burst of 2)", got)
	}
}

func TestHTTPStallExercisesClientTimeout(t *testing.T) {
	_, ts := wrapped(t, "test.http.stall", "stall(1,ms=2000)")
	client := &http.Client{Timeout: 50 * time.Millisecond}
	start := time.Now()
	if _, _, err := get(t, client, ts.URL+"/a", nil); err == nil {
		t.Fatal("stalled request returned a response")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("client blocked %v; its timeout did not cut the stall", elapsed)
	}
}

// transcript drives n sequential requests through name armed with spec
// at seed and returns the site's decision transcript.
func transcript(t *testing.T, name, spec string, seed int64, n int) string {
	t.Helper()
	reset(t)
	fp := NewHTTP(name)
	if err := Arm(spec, seed); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fp.Wrap(testUpstream))
	defer ts.Close()
	client := &http.Client{Timeout: 2 * time.Second}
	StartTrace()
	for i := 0; i < n; i++ {
		// Faulted exchanges (reset, stall, truncate) surface as client
		// errors; only the decision sequence matters here.
		_, _, _ = get(t, client, ts.URL+"/a", nil)
	}
	out := StopTrace()
	client.CloseIdleConnections()
	DisarmAll()
	return out
}

// TestHTTPMixedActionsShareOneSchedule: every HTTP action armed on one
// site draws from that site's one seeded RNG, so the same seed over the
// same request sequence replays the same action at every hit, and the
// transcript names each of them.
func TestHTTPMixedActionsShareOneSchedule(t *testing.T) {
	const site = "test.http.mixed"
	spec := site + "=delay(0.1,ms=1)|reset(0.1)|truncate(0.1)|bitflip(0.1)|status(0.1)|stall(0.1,ms=1)"
	a, b := transcript(t, site, spec, 1234, 80), transcript(t, site, spec, 1234, 80)
	if a != b {
		t.Fatalf("same seed diverged:\n--- first\n%s--- second\n%s", a, b)
	}
	for _, k := range kindNames[kindDelay:] {
		if !strings.Contains(a, " "+k+"\n") {
			t.Errorf("action %s never fired in 80 hits at p=0.1:\n%s", k, a)
		}
	}
	if c := transcript(t, site, spec, 4321, 80); c == a {
		t.Fatal("different seeds produced identical transcripts; seed is not reaching the decision stream")
	}
}

// TestRecipeReplaysHTTPSchedule pins the repro contract for network
// faults: the one-line recipe a failing run prints, parsed back and
// re-armed over the same request sequence, yields a byte-identical
// transcript.
func TestRecipeReplaysHTTPSchedule(t *testing.T) {
	const site = "test.http.recipe"
	line := Recipe(77, site+"=status(0.2)|truncate(0.2)|bitflip(0.2,after=3)")
	first := ""
	for i := 0; i < 2; i++ {
		var seed int64
		var spec string
		if _, err := fmt.Sscanf(line, "seed=%d spec=%q", &seed, &spec); err != nil {
			t.Fatalf("recipe %q does not parse back: %v", line, err)
		}
		got := transcript(t, site, spec, seed, 60)
		if !strings.Contains(got, "status") || !strings.Contains(got, "pass") {
			t.Fatalf("transcript should mix faults and passes:\n%s", got)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("re-armed recipe %s diverged:\n--- first\n%s--- second\n%s", line, first, got)
		}
	}
}

// lateSites names a fresh undeclared site per run, so the test holds
// under -count.
var lateSites atomic.Int64

// TestArmRejectsActionsOfTheOtherKind: a declared site's kind decides
// which actions a spec may arm on it, and the error names the site.
func TestArmRejectsActionsOfTheOtherKind(t *testing.T) {
	reset(t)
	New("test.kind.disk")
	NewHTTP("test.kind.wire")
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"test.kind.disk=err(1,errno=EIO)", true},
		{"test.kind.disk=crash(0.5)", true},
		{"test.kind.wire=status(1)|reset(0)", true},
		{"test.kind.wire=off", true},
		{"test.kind.undeclared=truncate(1)", false},
		{"test.kind.wire=err(1)", false},
		{"test.kind.wire=crash(1)", false},
		{"test.kind.disk=status(1)", false},
		{"test.kind.disk=delay(0.5,ms=5)", false},
		{"test.kind.disk=err(1);test.kind.wire=err(1)", false},
	} {
		err := Check(tc.spec)
		if tc.ok != (err == nil) {
			t.Errorf("Check(%q) = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if armErr := Arm(tc.spec, 1); (armErr == nil) != tc.ok {
			t.Errorf("Arm(%q) = %v, want ok=%v", tc.spec, armErr, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "test.kind.") {
			t.Errorf("Check(%q) error %q does not name the site", tc.spec, err)
		}
		DisarmAll()
	}
	// A storage site may be armed before its owner declares it (an
	// instrumented FS built after the spec); the declaration finds it
	// armed.
	late := fmt.Sprintf("test.kind.late%d", lateSites.Add(1))
	if err := Arm(late+"=err(1)", 1); err != nil {
		t.Fatal(err)
	}
	if err := New(late).Inject(); !errors.Is(err, ErrInjected) {
		t.Fatalf("late-declared storage site lost its arm: %v", err)
	}
}

func TestHTTPTriggersExposition(t *testing.T) {
	const site = "test.http.metrics"
	fp, ts := wrapped(t, site, "bitflip(1)")
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	before := fp.Triggers()
	if _, _, err := get(t, http.DefaultClient, ts.URL+"/a", nil); err != nil {
		t.Fatalf("GET: %v", err)
	}
	exp := reg.Render()
	want := fmt.Sprintf(`psl_failpoint_triggers_total{name=%q} %d`, site, before+1)
	if !strings.Contains(exp, want) {
		t.Errorf("exposition missing %q", want)
	}
	if _, err := obs.ValidateExposition(strings.NewReader(exp)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

func TestActionStrings(t *testing.T) {
	want := []string{"err", "crash", "delay", "reset", "truncate", "bitflip", "status", "stall"}
	for k := kindErr; k <= kindStall; k++ {
		if k.String() != want[k] {
			t.Errorf("kind %d String() = %q, want %q", k, k.String(), want[k])
		}
		if k.isHTTP() != (k >= kindDelay) {
			t.Errorf("%v.isHTTP() = %v", k, k.isHTTP())
		}
	}
}

// TestDisarmedWrapZeroAlloc pins the production cost of a compiled-in
// HTTP site: a disarmed Wrap adds no allocation to the inner handler.
func TestDisarmedWrapZeroAlloc(t *testing.T) {
	reset(t)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	h := NewHTTP("test.alloc.wire").Wrap(inner)
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	base := testing.AllocsPerRun(1000, func() { inner.ServeHTTP(w, r) })
	if n := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, r) }); n != base {
		t.Fatalf("disarmed Wrap allocates %v per request, inner handler alone %v", n, base)
	}
	SetObserve(true)
	if n := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, r) }); n != base {
		t.Fatalf("observing disarmed Wrap allocates %v per request, inner handler alone %v", n, base)
	}
}
