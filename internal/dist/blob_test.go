package dist

import (
	"context"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/psl"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// blobList is a small list with every rule flavour, for codec tests.
func blobList() *psl.List {
	return psl.MustParse(`
// ===BEGIN ICANN DOMAINS===
com
co.uk
*.ck
!www.ck
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
// ===END PRIVATE DOMAINS===
`)
}

func TestMatcherBlobRoundTrip(t *testing.T) {
	l := blobList()
	fp := l.Fingerprint()
	pm := psl.NewPackedMatcher(l)
	env := EncodeMatcherBlob(7, fp, pm.Marshal())

	b, err := DecodeMatcherBlob(env)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if b.Seq != 7 || b.FP != fp {
		t.Fatalf("decoded header seq=%d fp=%s, want 7/%s", b.Seq, b.FP, fp)
	}
	got, err := UnpackMatcherBlob(env, 7, fp)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	for _, host := range []string{"a.b.com", "x.co.uk", "any.ck", "www.ck", "u.github.io", "unlisted.zone"} {
		if w, g := pm.Match(host), got.Match(host); w != g {
			t.Errorf("Match(%q): unpacked %+v, compiled %+v", host, g, w)
		}
	}
	if got.RulesFingerprint() != fp {
		t.Errorf("unpacked matcher fingerprint diverged")
	}
}

// TestMatcherBlobRejections walks the verification chain link by link:
// every way a blob can be wrong must surface as a typed error, and the
// one subtle case — a structurally valid matcher for the WRONG rules
// inside a correctly checksummed envelope — must be caught by the
// recomputed rules fingerprint.
func TestMatcherBlobRejections(t *testing.T) {
	l := blobList()
	fp := l.Fingerprint()
	packed := psl.NewPackedMatcher(l).Marshal()
	env := EncodeMatcherBlob(7, fp, packed)

	if _, err := UnpackMatcherBlob(env, 8, fp); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong seq: %v, want ErrCorrupt", err)
	}
	other := psl.MustParse("net\norg\n")
	if _, err := UnpackMatcherBlob(env, 7, other.Fingerprint()); !errors.Is(err, ErrFingerprint) {
		t.Errorf("wrong fingerprint: %v, want ErrFingerprint", err)
	}

	// Flip one bit anywhere: the envelope checksum catches it.
	for _, off := range []int{0, 4, 10, len(env) / 2, len(env) - 1} {
		bad := append([]byte(nil), env...)
		bad[off] ^= 0x40
		if _, err := UnpackMatcherBlob(bad, 7, fp); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flipped byte %d: %v, want ErrCorrupt", off, err)
		}
	}
	if _, err := UnpackMatcherBlob(env[:len(env)-5], 7, fp); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: want ErrCorrupt")
	}

	// A correctly checksummed envelope around a garbage packed region:
	// the structural validator rejects it.
	garbage := EncodeMatcherBlob(7, fp, []byte("PSLP but not really"))
	if _, err := UnpackMatcherBlob(garbage, 7, fp); !errors.Is(err, psl.ErrBadBlob) {
		t.Errorf("garbage packed region: %v, want psl.ErrBadBlob", err)
	}

	// The deep case: a VALID matcher compiled from different rules,
	// wrapped in an envelope that promises l's fingerprint. Envelope
	// checksum passes, structural validation passes — only the rules
	// fingerprint cross-check can catch the swap.
	swapped := EncodeMatcherBlob(7, fp, psl.NewPackedMatcher(other).Marshal())
	if _, err := UnpackMatcherBlob(swapped, 7, fp); !errors.Is(err, ErrFingerprint) {
		t.Errorf("swapped matcher: %v, want ErrFingerprint", err)
	}
}

func TestOriginServeBlob(t *testing.T) {
	h := testHist(t, 20)
	o := NewOrigin(h)
	ts := httptest.NewServer(o)
	defer ts.Close()

	status, body, hdr := getBody(t, ts.URL+blobPrefix+"5")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	fp := o.Chain().Fingerprint(5)
	pm, err := UnpackMatcherBlob(body, 5, fp)
	if err != nil {
		t.Fatalf("served blob does not verify: %v", err)
	}
	if pm.Len() != h.ListAt(5).Len() {
		t.Fatalf("blob matcher has %d rules, version has %d", pm.Len(), h.ListAt(5).Len())
	}
	if want := `"` + fp + `"`; hdr.Get("ETag") != want {
		t.Fatalf("ETag %q, want %q", hdr.Get("ETag"), want)
	}

	// Conditional re-fetch short-circuits; the render cache means the
	// second full fetch compiles nothing new.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+blobPrefix+"5", nil)
	req.Header.Set("If-None-Match", hdr.Get("ETag"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status %d, want 304", resp.StatusCode)
	}
	if status, _, _ := getBody(t, ts.URL+blobPrefix+"5"); status != http.StatusOK {
		t.Fatalf("re-fetch status %d", status)
	}
	if got := o.blobs.renders.Load(); got != 1 {
		t.Fatalf("blob rendered %d times, want 1", got)
	}

	// Out of range and malformed seqs 404.
	for _, rest := range []string{"99", "-1", "x"} {
		if status, _, _ := getBody(t, ts.URL+blobPrefix+rest); status != http.StatusNotFound {
			t.Errorf("blob/%s: status %d, want 404", rest, status)
		}
	}
}

// TestFollowerZeroCompiles is the tentpole's acceptance test: a
// follower bootstrapped from the origin's compiled blob and fed every
// subsequent version through OnInstall performs ZERO matcher compiles —
// the origin compiles once per version, the follower only verifies.
func TestFollowerZeroCompiles(t *testing.T) {
	h := testHist(t, 30)
	o := NewOrigin(h)
	o.SetHead(5)
	ts := httptest.NewServer(o)
	defer ts.Close()

	opts := fastOpts()
	opts.FetchBlobs = true
	rep := NewReplica(ts.URL, opts)
	ctx := context.Background()

	l, seq, err := rep.Bootstrap(ctx, -1)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	fp := o.Chain().Fingerprint(seq)
	pm := rep.FetchMatcherBlob(ctx, seq, fp)
	if pm == nil {
		t.Fatalf("bootstrap blob fetch failed (hits=%d misses=%d invalid=%d)",
			rep.BlobHits(), rep.BlobMisses(), rep.BlobInvalid())
	}
	svc := serve.NewWith(l, seq, fp, pm, serve.Options{})
	rep.OnInstall = func(l *psl.List, seq int, fp string, m psl.Matcher) {
		svc.SwapVerified(l, seq, fp, m)
	}

	for _, head := range []int{12, 20, 29} {
		o.SetHead(head)
		if err := rep.Poll(ctx); err != nil {
			t.Fatalf("Poll to %d: %v", head, err)
		}
	}
	if cur := svc.Current(); cur.Seq != 29 {
		t.Fatalf("service at seq %d, want 29", cur.Seq)
	}
	compile, blob, reuse := svc.MatcherInstalls()
	if compile != 0 {
		t.Fatalf("follower compiled %d matchers, want 0 (blob=%d reuse=%d)", compile, blob, reuse)
	}
	if blob == 0 {
		t.Fatalf("no blob installs recorded")
	}
	if rep.BlobHits() == 0 || rep.BlobInvalid() != 0 {
		t.Fatalf("blob counters hits=%d invalid=%d", rep.BlobHits(), rep.BlobInvalid())
	}

	// The blob-fed service answers exactly like a locally compiled one.
	ref := serve.New(h.ListAt(29), 29, serve.Options{})
	for _, host := range []string{"a.b.com", "unlisted.zone", "x.co.uk"} {
		got, err1 := svc.Lookup(host)
		want, err2 := ref.Lookup(host)
		if err1 != nil || err2 != nil {
			t.Fatalf("lookup %q: %v / %v", host, err1, err2)
		}
		if got != want {
			t.Errorf("host %q: blob-fed %+v != compiled %+v", host, got, want)
		}
	}
}

// TestCorruptBlobFallsBack poisons only the /dist/blob endpoint: rule
// replication must proceed untouched (verified swaps, closed breaker)
// while every poisoned blob is rejected and the service falls back to
// compiling. A corrupt compile shortcut must cost performance, never
// correctness or availability.
func TestCorruptBlobFallsBack(t *testing.T) {
	h := testHist(t, 20)
	o := NewOrigin(h)
	o.SetHead(2)
	poison := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, blobPrefix) {
			rec := httptest.NewRecorder()
			o.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if len(body) > 10 {
				body[10] ^= 0xff // corrupt inside the envelope
			}
			w.Write(body)
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer poison.Close()

	opts := fastOpts()
	opts.FetchBlobs = true
	rep := NewReplica(poison.URL, opts)
	ctx := context.Background()

	l, seq, err := rep.Bootstrap(ctx, -1)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	fp := o.Chain().Fingerprint(seq)
	if pm := rep.FetchMatcherBlob(ctx, seq, fp); pm != nil {
		t.Fatalf("corrupt bootstrap blob verified")
	}
	svc := serve.NewWith(l, seq, fp, nil, serve.Options{})
	unverified := 0
	rep.OnInstall = func(l *psl.List, seq int, fp string, m psl.Matcher) {
		if fp != o.Chain().Fingerprint(seq) {
			unverified++
		}
		svc.SwapVerified(l, seq, fp, m)
	}

	for _, head := range []int{8, 15} {
		o.SetHead(head)
		if err := rep.Poll(ctx); err != nil {
			t.Fatalf("Poll to %d: %v", head, err)
		}
	}
	if cur := svc.Current(); cur.Seq != 15 {
		t.Fatalf("service at seq %d, want 15", cur.Seq)
	}
	if unverified != 0 {
		t.Fatalf("%d unverified swaps", unverified)
	}
	if rep.BlobInvalid() == 0 || rep.BlobHits() != 0 {
		t.Fatalf("blob counters hits=%d invalid=%d, want 0/>0", rep.BlobHits(), rep.BlobInvalid())
	}
	compile, blob, _ := svc.MatcherInstalls()
	if blob != 0 || compile == 0 {
		t.Fatalf("installs compile=%d blob=%d, want compiles only", compile, blob)
	}
	if rep.Breaker().State() != resilience.BreakerClosed {
		t.Fatalf("corrupt blobs tripped the breaker")
	}
	// And replication itself never recorded a verify failure — the
	// corruption was confined to the optional blob channel.
	if rep.VerifyFailures() != 0 {
		t.Fatalf("rule replication recorded %d verify failures", rep.VerifyFailures())
	}
}

// TestBlobAbsenceIsQuiet points a blob-fetching replica at an upstream
// that predates the endpoint entirely: installs proceed, misses are
// counted, and — critically — the 404s never feed the circuit breaker.
func TestBlobAbsenceIsQuiet(t *testing.T) {
	h := testHist(t, 10)
	o := NewOrigin(h)
	o.SetHead(1)
	// An "old" origin: every blob request 404s before reaching o.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, blobPrefix) {
			http.NotFound(w, r)
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer old.Close()

	opts := fastOpts()
	opts.FetchBlobs = true
	opts.BreakerThreshold = 2 // would trip almost immediately if misses counted
	rep := NewReplica(old.URL, opts)
	ctx := context.Background()
	l, seq, err := rep.Bootstrap(ctx, -1)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	svc := serve.NewWith(l, seq, o.Chain().Fingerprint(seq), nil, serve.Options{})
	rep.OnInstall = func(l *psl.List, seq int, fp string, m psl.Matcher) {
		svc.SwapVerified(l, seq, fp, m)
	}
	for _, head := range []int{4, 7, 9} {
		o.SetHead(head)
		if err := rep.Poll(ctx); err != nil {
			t.Fatalf("Poll to %d: %v", head, err)
		}
	}
	if cur := svc.Current(); cur.Seq != 9 {
		t.Fatalf("service at seq %d, want 9", cur.Seq)
	}
	if rep.BlobMisses() == 0 {
		t.Fatalf("no blob misses recorded")
	}
	if rep.Breaker().State() != resilience.BreakerClosed {
		t.Fatalf("blob 404s tripped the breaker")
	}
}

// TestMatcherStatePersistence drives the file-backed path: a verified
// blob fetch persists matcher.pslm next to snapshot.pslf, and a
// restarted process reloads both with zero compiles; a stale matcher
// file (older version) is rejected on load, never returned.
func TestMatcherStatePersistence(t *testing.T) {
	h := testHist(t, 10)
	o := NewOrigin(h)
	o.SetHead(3)
	ts := httptest.NewServer(o)
	defer ts.Close()

	dir := t.TempDir()
	opts := fastOpts()
	opts.FetchBlobs = true
	opts.StateDir = dir
	rep := NewReplica(ts.URL, opts)
	ctx := context.Background()
	rep.OnInstall = func(*psl.List, int, string, psl.Matcher) {}
	if _, _, err := rep.Bootstrap(ctx, -1); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	o.SetHead(6)
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, MatcherFileName)); err != nil {
		t.Fatalf("matcher state not persisted: %v", err)
	}

	// "Restart": restore the snapshot, then reload the matcher against
	// the restored version's identity.
	rep2 := NewReplica(ts.URL, opts)
	l, seq, err := rep2.RestoreState()
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if seq != 6 {
		t.Fatalf("restored seq %d, want 6", seq)
	}
	pm, err := LoadMatcherBlob(dir, seq, l.Fingerprint())
	if err != nil {
		t.Fatalf("LoadMatcherBlob: %v", err)
	}
	svc := serve.NewWith(l, seq, l.Fingerprint(), pm, serve.Options{})
	if compile, blob, _ := svc.MatcherInstalls(); compile != 0 || blob != 1 {
		t.Fatalf("restart installs compile=%d blob=%d, want 0/1", compile, blob)
	}

	// A matcher file for the wrong version must fail verification.
	if _, err := LoadMatcherBlob(dir, 5, o.Chain().Fingerprint(5)); err == nil {
		t.Fatalf("stale matcher blob verified against the wrong version")
	}
	// Missing file surfaces as fs.ErrNotExist.
	if _, err := LoadMatcherBlob(t.TempDir(), 6, l.Fingerprint()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing matcher file: %v, want fs.ErrNotExist", err)
	}
}

// TestRelayServesBlob checks the fan-out tier: an edge pulling blobs
// from a relay gets the same verified compile shortcut, compiled once
// at the relay, and eviction tracks the retained window.
func TestRelayServesBlob(t *testing.T) {
	h := testHist(t, 20)
	o := NewOrigin(h)
	o.SetHead(5)
	originTS := httptest.NewServer(o)
	defer originTS.Close()

	rel := NewRelay(NewReplica(originTS.URL, fastOpts()), RelayOptions{Retain: 4})
	ctx := context.Background()
	if _, _, err := rel.Replica().Bootstrap(ctx, -1); err != nil {
		t.Fatalf("relay bootstrap: %v", err)
	}
	rel.Seed(rel.Replica().state.list, int(rel.Replica().CurrentSeq()))
	relayTS := httptest.NewServer(rel)
	defer relayTS.Close()

	edgeOpts := fastOpts()
	edgeOpts.FetchBlobs = true
	edge := NewReplica(relayTS.URL, edgeOpts)
	l, seq, err := edge.Bootstrap(ctx, -1)
	if err != nil {
		t.Fatalf("edge bootstrap: %v", err)
	}
	fp := o.Chain().Fingerprint(seq)
	pm := edge.FetchMatcherBlob(ctx, seq, fp)
	if pm == nil {
		t.Fatalf("edge blob fetch from relay failed (misses=%d invalid=%d)", edge.BlobMisses(), edge.BlobInvalid())
	}
	if pm.RulesFingerprint() != fp {
		t.Fatalf("relay blob fingerprint diverged")
	}
	_ = l
	if rel.blobs.renders.Load() != 1 {
		t.Fatalf("relay rendered %d blobs, want 1", rel.blobs.renders.Load())
	}
	// A second fetch is served from the render cache.
	if again := edge.FetchMatcherBlob(ctx, seq, fp); again == nil || rel.blobs.renders.Load() != 1 {
		t.Fatalf("relay re-rendered (renders=%d)", rel.blobs.renders.Load())
	}
	// Outside the retained window: 404, counted as a miss at the edge.
	if pm := edge.FetchMatcherBlob(ctx, 0, o.Chain().Fingerprint(0)); pm != nil {
		t.Fatalf("relay served a blob outside its window")
	}
}
