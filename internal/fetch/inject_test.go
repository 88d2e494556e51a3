package fetch

import (
	"crypto/sha256"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// The fetch.list site is the raw-list server's fault injector; these
// tests render each of its HTTP actions around a fixed payload.

// payload is a fixed 4KB body whose checksum corruption tests compare
// against.
func payloadHandler() (http.Handler, [32]byte) {
	body := make([]byte, 4096)
	for i := range body {
		body[i] = byte(i * 31)
	}
	sum := sha256.Sum256(body)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body)
	})
	return h, sum
}

// injected counts the fetch.list site's fires from the call on.
func injected() func() uint64 {
	base := fpList.Triggers()
	return func() uint64 { return fpList.Triggers() - base }
}

func TestInjectorPassThrough(t *testing.T) {
	h, sum := payloadHandler()
	ts := httptest.NewServer(fpList.Wrap(h))
	defer ts.Close()
	armList(t, "status(0)|truncate(0)|bitflip(0)|stall(0)")
	count := injected()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("read: status %d err %v", resp.StatusCode, err)
	}
	if sha256.Sum256(body) != sum {
		t.Fatalf("pass-through body altered")
	}
	if n := count(); n != 0 {
		t.Fatalf("Injected = %d, want 0", n)
	}
}

func TestInjector5xx(t *testing.T) {
	h, _ := payloadHandler()
	armList(t, "status(1,limit=1)")
	count := injected()
	ts := httptest.NewServer(fpList.Wrap(h))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if n := count(); n != 1 {
		t.Fatalf("Injected = %d, want 1", n)
	}
	// Budget consumed: next request passes.
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after budget = %d, want 200", resp.StatusCode)
	}
}

func TestInjectorTruncate(t *testing.T) {
	h, _ := payloadHandler()
	armList(t, "truncate(1,limit=1)")
	ts := httptest.NewServer(fpList.Wrap(h))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != 4096 {
		t.Fatalf("Content-Length = %d, want full 4096", resp.ContentLength)
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("truncated read succeeded with %d bytes, want error", len(body))
	}
	if len(body) >= 4096 {
		t.Fatalf("got %d bytes, want a short body", len(body))
	}
}

func TestInjectorCorrupt(t *testing.T) {
	h, sum := payloadHandler()
	armList(t, "bitflip(1,limit=1)")
	ts := httptest.NewServer(fpList.Wrap(h))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// The poison pill: everything about the response looks healthy.
	if resp.StatusCode != http.StatusOK || len(body) != 4096 {
		t.Fatalf("status %d len %d, want healthy-looking 200 with full length", resp.StatusCode, len(body))
	}
	if sha256.Sum256(body) == sum {
		t.Fatalf("corrupt body checksum unchanged")
	}
}

func TestInjectorStall(t *testing.T) {
	h, _ := payloadHandler()
	armList(t, "stall(1,ms=5000,limit=1)")
	ts := httptest.NewServer(fpList.Wrap(h))
	defer ts.Close()

	client := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	resp, err := client.Get(ts.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("stalled request succeeded, want timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client blocked %v; timeout did not fire", elapsed)
	}
}

func TestInjectorRateAndString(t *testing.T) {
	h, _ := payloadHandler()
	ts := httptest.NewServer(fpList.Wrap(h))
	defer ts.Close()
	get := func() int {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	armList(t, "status(0.5)|bitflip(0.5)")
	count := injected()
	failpoint.StartTrace()
	for i := 0; i < 50; i++ {
		get()
	}
	schedule := failpoint.StopTrace()
	if n := count(); n != 50 {
		t.Fatalf("rate 1.0: %d/50 failed", n)
	}
	failpoint.Disarm("fetch.list")
	count = injected()
	if code := get(); code != http.StatusOK || count() != 0 {
		t.Fatalf("disarmed site still failing: status %d, %d fires", code, count())
	}
	// The transcript names each decision by its action.
	for _, want := range []string{"fetch.list#0 ", " status\n", " bitflip\n"} {
		if !strings.Contains(schedule, want) {
			t.Errorf("transcript missing %q:\n%s", want, schedule)
		}
	}
}
