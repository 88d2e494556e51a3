package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

var batchHosts = []string{
	"example.com", "WwW.Example.COM", "b.example.co.uk", "gov.uk",
	"a.b.ide.kyoto.jp", "city.kobe.jp", "www.www.ck", "食狮.公司.cn",
	"myblog.blogspot.com", "a.x.compute.amazonaws.com", "deep.unlisted.zone",
}

// TestLookupBatchMatchesLookup pins the batch API to the single-lookup
// path: same hosts, same answers, and every row tallied as answered.
func TestLookupBatchMatchesLookup(t *testing.T) {
	svc := New(fixture(t), -1, Options{})
	want := make([]Answer, 0, len(batchHosts))
	for _, h := range batchHosts {
		a, err := svc.Lookup(h)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", h, err)
		}
		want = append(want, a)
	}
	got := svc.LookupBatch(batchHosts, nil)
	if len(got) != len(want) {
		t.Fatalf("LookupBatch returned %d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d (%q): got %+v, want %+v", i, batchHosts[i], got[i], want[i])
		}
	}
	oks, errs := svc.batchRowOKs.Load(), svc.batchRowErrs.Load()
	if oks != uint64(len(batchHosts)) || errs != 0 {
		t.Errorf("batch tallies ok=%d errs=%d, want %d/0", oks, errs, len(batchHosts))
	}
}

// TestLookupBatchErrorRows checks an invalid host fails only its row.
func TestLookupBatchErrorRows(t *testing.T) {
	svc := New(fixture(t), -1, Options{})
	got := svc.LookupBatch([]string{"example.com", "192.168.0.1", "b.example.co.uk"}, nil)
	if len(got) != 3 {
		t.Fatalf("got %d rows, want 3", len(got))
	}
	if got[0].Error != "" || got[2].Error != "" {
		t.Errorf("valid rows carry errors: %+v %+v", got[0], got[2])
	}
	if got[1].Error == "" || got[1].Query != "192.168.0.1" {
		t.Errorf("invalid row: %+v, want error row echoing query", got[1])
	}
	if errs := svc.batchRowErrs.Load(); errs != 1 {
		t.Errorf("error tally = %d, want 1", errs)
	}
}

// TestAppendAnswerJSONRoundTrip pins the hand-rolled encoder to
// encoding/json: every answer shape must decode back to the identical
// struct.
func TestAppendAnswerJSONRoundTrip(t *testing.T) {
	snap := NewSnapshot(fixture(t), 7)
	cases := append([]string{}, batchHosts...)
	for _, h := range cases {
		a, err := snap.Resolve(h)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", h, err)
		}
		checkAnswerJSON(t, a)
	}
	// Error rows and hostile strings.
	checkAnswerJSON(t, Answer{Query: "192.168.0.1", Version: "v", Seq: -1, Error: `not a domain: "192.168.0.1"`})
	checkAnswerJSON(t, Answer{Query: "a\"b\\c\n\t\x01", Host: "x", ETLD: "y", Section: "implicit", Version: "v1", Seq: 0})
}

func checkAnswerJSON(t *testing.T, a Answer) {
	t.Helper()
	hand := appendAnswerJSON(nil, &a)
	var back Answer
	if err := json.Unmarshal(hand, &back); err != nil {
		t.Fatalf("hand-rolled JSON does not parse: %v\n%s", err, hand)
	}
	if !reflect.DeepEqual(a, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v\njson %s", back, a, hand)
	}
}

// TestHTTPBatchNDJSON drives /v1/batch in NDJSON mode end to end: row
// order, blank-line tolerance, per-row errors, and agreement with the
// single-lookup endpoint.
func TestHTTPBatchNDJSON(t *testing.T) {
	svc := New(fixture(t), -1, Options{})
	body := "example.com\n\n  b.example.co.uk  \n192.168.0.1\nwww.www.ck"
	req := httptest.NewRequest(http.MethodPost, BatchPath, strings.NewReader(body))
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != BatchNDJSONContentType {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d rows, want 4: %q", len(lines), lines)
	}
	wantQueries := []string{"example.com", "b.example.co.uk", "192.168.0.1", "www.www.ck"}
	for i, line := range lines {
		var a Answer
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("row %d: %v (%s)", i, err, line)
		}
		if a.Query != wantQueries[i] {
			t.Errorf("row %d query %q, want %q", i, a.Query, wantQueries[i])
		}
		if wantQueries[i] == "192.168.0.1" {
			if a.Error == "" {
				t.Errorf("row %d: expected error row, got %+v", i, a)
			}
			continue
		}
		if a.Error != "" {
			t.Errorf("row %d unexpected error %q", i, a.Error)
			continue
		}
		direct, err := svc.Lookup(wantQueries[i])
		if err != nil {
			t.Fatalf("Lookup(%q): %v", wantQueries[i], err)
		}
		if a != direct {
			t.Errorf("row %d: batch %+v != lookup %+v", i, a, direct)
		}
	}
	if n := svc.batchNDJSON.Load(); n != 1 {
		t.Errorf("ndjson request counter = %d, want 1", n)
	}
}

// TestHTTPBatchBinary drives the binary wire mode: encode a request,
// decode the response envelope, check rows.
func TestHTTPBatchBinary(t *testing.T) {
	svc := New(fixture(t), -1, Options{})
	hosts := []string{"example.com", "192.168.0.1", "食狮.公司.cn"}
	payload, err := EncodeBatchRequest(hosts)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(payload))
	req.Header.Set("Content-Type", BatchBinaryContentType)
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != BatchBinaryContentType {
		t.Errorf("content type %q", ct)
	}
	rows, err := DecodeBatchResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if len(rows) != len(hosts) {
		t.Fatalf("got %d rows, want %d", len(rows), len(hosts))
	}
	for i, row := range rows {
		var a Answer
		if err := json.Unmarshal(row, &a); err != nil {
			t.Fatalf("row %d: %v (%s)", i, err, row)
		}
		if a.Query != hosts[i] {
			t.Errorf("row %d query %q, want %q", i, a.Query, hosts[i])
		}
		if (hosts[i] == "192.168.0.1") != (a.Error != "") {
			t.Errorf("row %d error mismatch: %+v", i, a)
		}
	}
	if n := svc.batchBinary.Load(); n != 1 {
		t.Errorf("binary request counter = %d, want 1", n)
	}
}

// TestHTTPBatchLimits checks the refusal paths: method, row bound in
// both modes, and malformed binary envelopes.
func TestHTTPBatchLimits(t *testing.T) {
	svc := New(fixture(t), -1, Options{MaxBatch: 4})

	req := httptest.NewRequest(http.MethodGet, BatchPath, nil)
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}

	req = httptest.NewRequest(http.MethodPost, BatchPath, strings.NewReader("a.com\nb.com\nc.com\nd.com\ne.com\n"))
	rec = httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("5-row NDJSON at MaxBatch=4: status %d, want 413", rec.Code)
	}

	payload, err := EncodeBatchRequest([]string{"a.com", "b.com", "c.com", "d.com", "e.com"})
	if err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(payload))
	req.Header.Set("Content-Type", BatchBinaryContentType)
	rec = httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("5-row binary at MaxBatch=4: status %d, want 413", rec.Code)
	}

	small, err := EncodeBatchRequest([]string{"a.com", "b.com"})
	if err != nil {
		t.Fatal(err)
	}
	for name, garbage := range map[string][]byte{
		"bad magic":   []byte("NOPE\x01\x00"),
		"truncated":   small[:len(small)-3],
		"empty":       {},
		"bad version": []byte("PSLB\xff\x00"),
	} {
		req = httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(garbage))
		req.Header.Set("Content-Type", BatchBinaryContentType)
		rec = httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
}

// TestBatchCodecRoundTrip pins request framing: encode → decode is the
// identity, and the encoder refuses what the decoder would.
func TestBatchCodecRoundTrip(t *testing.T) {
	cases := [][]string{
		{},
		{""},
		{"example.com"},
		{"example.com", "食狮.公司.cn", strings.Repeat("a", maxBatchHostLen)},
	}
	for _, hosts := range cases {
		enc, err := EncodeBatchRequest(hosts)
		if err != nil {
			t.Fatalf("encode %v: %v", hosts, err)
		}
		dec, err := DecodeBatchRequest(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", hosts, err)
		}
		if len(dec) != len(hosts) {
			t.Fatalf("round trip %v -> %v", hosts, dec)
		}
		for i := range dec {
			if dec[i] != hosts[i] {
				t.Errorf("row %d: %q != %q", i, dec[i], hosts[i])
			}
		}
	}
	if _, err := EncodeBatchRequest([]string{strings.Repeat("a", maxBatchHostLen+1)}); err == nil {
		t.Error("encoder accepted an oversize host")
	}
	if _, err := EncodeBatchRequest([]string{"\xff\xfe"}); err == nil {
		t.Error("encoder accepted invalid UTF-8")
	}
	if !utf8.ValidString("ok") {
		t.Fatal("sanity")
	}
}

// TestBatchVersionPinning checks every row of one batch answers from
// the same snapshot even though a row error interleaves.
func TestBatchVersionPinning(t *testing.T) {
	svc := New(fixture(t), 3, Options{})
	got := svc.LookupBatch([]string{"example.com", "bad..name", "b.example.co.uk"}, nil)
	for i, a := range got {
		if a.Seq != 3 {
			t.Errorf("row %d seq %d, want 3 (pinned)", i, a.Seq)
		}
	}
}
