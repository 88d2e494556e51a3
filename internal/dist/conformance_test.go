package dist

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDistConformanceOriginRelay serves one history through an Origin
// and through a Relay seeded with the same versions, and requires the
// two tiers to answer every /dist/ request alike: the same status, ETag
// and Content-Type; byte-identical full and blob bodies; patches that
// decode to the same span and target fingerprint (the relay diffs two
// snapshots, the origin replays events, so the encodings may differ);
// and manifests that differ only in the tier-local depth, min_seq and
// published_at. Relay-only answers (503 before the first install, 404
// below min_seq) are pinned in relay_test.go.
func TestDistConformanceOriginRelay(t *testing.T) {
	const head = 12
	h := testHist(t, 30)
	o := NewOrigin(h)
	o.SetHead(head)
	origin := httptest.NewServer(o)
	defer origin.Close()

	rl := NewRelay(NewReplica("http://unused.invalid", fastOpts()), RelayOptions{Retain: 64})
	for seq := 0; seq <= head; seq++ {
		rl.Seed(h.ListAt(seq), seq)
	}
	relay := httptest.NewServer(rl)
	defer relay.Close()

	etag := func(seq int) string { return `"` + o.Chain().Fingerprint(seq) + `"` }
	cases := []struct {
		name, path, ifNoneMatch string
	}{
		{"manifest", ManifestPath, ""},
		{"manifest not modified", ManifestPath, etag(head)},
		{"manifest stale etag", ManifestPath, etag(head - 1)},
		{"full", fullPrefix + "7", ""},
		{"full at head", fullPrefix + "12", ""},
		{"full at zero", fullPrefix + "0", ""},
		{"full not modified", fullPrefix + "7", etag(7)},
		{"full other etag", fullPrefix + "7", etag(8)},
		{"blob", blobPrefix + "7", ""},
		{"blob not modified", blobPrefix + "7", etag(7)},
		{"adjacent patch", patchPrefix + "6/7", ""},
		{"compacted patch", patchPrefix + "2/12", ""},
		{"patch from zero", patchPrefix + "0/5", ""},
		{"patch ignores If-None-Match", patchPrefix + "6/7", etag(7)},
		{"full beyond head", fullPrefix + "13", ""},
		{"blob beyond head", blobPrefix + "99", ""},
		{"patch beyond head", patchPrefix + "3/13", ""},
		{"full negative", fullPrefix + "-1", ""},
		{"blob negative", blobPrefix + "-1", ""},
		{"patch negative from", patchPrefix + "-1/3", ""},
		{"patch from equals to", patchPrefix + "5/5", ""},
		{"patch from after to", patchPrefix + "7/5", ""},
		{"full malformed", fullPrefix + "x", ""},
		{"full empty seq", fullPrefix, ""},
		{"blob malformed", blobPrefix + "7a", ""},
		{"patch without to", patchPrefix + "5", ""},
		{"patch malformed to", patchPrefix + "5/y", ""},
		{"patch extra segment", patchPrefix + "1/2/3", ""},
		{"unknown endpoint", Prefix + "nope", ""},
		{"prefix only", Prefix, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oStatus, oHdr, oBody := conformanceGet(t, origin.URL+tc.path, tc.ifNoneMatch)
			rStatus, rHdr, rBody := conformanceGet(t, relay.URL+tc.path, tc.ifNoneMatch)
			if oStatus != rStatus {
				t.Fatalf("status: origin %d, relay %d", oStatus, rStatus)
			}
			for _, k := range []string{"ETag", "Content-Type"} {
				if oHdr.Get(k) != rHdr.Get(k) {
					t.Errorf("%s: origin %q, relay %q", k, oHdr.Get(k), rHdr.Get(k))
				}
			}
			switch {
			case oStatus != http.StatusOK:
				if !bytes.Equal(oBody, rBody) {
					t.Errorf("%d body: origin %q, relay %q", oStatus, oBody, rBody)
				}
			case tc.path == ManifestPath:
				om, err := DecodeManifest(oBody)
				if err != nil {
					t.Fatalf("origin manifest: %v", err)
				}
				rm, err := DecodeManifest(rBody)
				if err != nil {
					t.Fatalf("relay manifest: %v", err)
				}
				om.Depth, om.MinSeq, om.PublishedAt = 0, 0, time.Time{}
				rm.Depth, rm.MinSeq, rm.PublishedAt = 0, 0, time.Time{}
				if om != rm {
					t.Errorf("manifests differ beyond depth/min_seq/published_at:\norigin %+v\nrelay  %+v", om, rm)
				}
			case strings.HasPrefix(tc.path, patchPrefix):
				op, err := DecodePatch(oBody)
				if err != nil {
					t.Fatalf("origin patch: %v", err)
				}
				rp, err := DecodePatch(rBody)
				if err != nil {
					t.Fatalf("relay patch: %v", err)
				}
				if op.FromSeq != rp.FromSeq || op.ToSeq != rp.ToSeq || op.FromFP != rp.FromFP || op.ToFP != rp.ToFP {
					t.Errorf("patch span: origin %d→%d %s→%s, relay %d→%d %s→%s",
						op.FromSeq, op.ToSeq, op.FromFP, op.ToFP, rp.FromSeq, rp.ToSeq, rp.FromFP, rp.ToFP)
				}
			default:
				if !bytes.Equal(oBody, rBody) {
					t.Errorf("body differs: origin %d bytes, relay %d bytes", len(oBody), len(rBody))
				}
			}
		})
	}
}

func conformanceGet(t *testing.T, url, ifNoneMatch string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}
