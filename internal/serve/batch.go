package serve

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
	"unsafe"

	"repro/internal/obs"
)

// Batched lookup path. A batch pins ONE snapshot (a single atomic load
// answers every row, so a mid-batch swap cannot split a batch across
// versions), holds ONE admission ticket, and tallies row results on the
// stack — the striped lookup counters are touched once per batch, not
// once per row, which removes the last shared-cache-line traffic from
// the steady-state hot loop. Row answers are appended to a pooled
// buffer with a hand-rolled JSON encoder, so a row with a canonical
// host allocates nothing.

// batchTally accumulates per-row results locally during one batch; it
// is flushed with one Add per counter when the batch completes.
type batchTally struct {
	oks, errs uint64
}

// flush publishes the tally to the batch row counters.
func (s *Service) flushBatchTally(t *batchTally) {
	if t.oks > 0 {
		s.batchRowOKs.Add(t.oks)
	}
	if t.errs > 0 {
		s.batchRowErrs.Add(t.errs)
	}
}

// resolveBatchRow answers one row against the pinned state. Invalid
// hosts fail only their own row — the answer carries the error and the
// row tallies as an error.
func (s *Service) resolveBatchRow(st *state, host string, t *batchTally) Answer {
	a, err := st.snap.Resolve(host)
	if err != nil {
		t.errs++
		return Answer{
			Query:   host,
			Version: st.snap.List.Version,
			Seq:     st.snap.Seq,
			Error:   err.Error(),
		}
	}
	t.oks++
	return a
}

// LookupBatch answers every host against one pinned snapshot, appending
// the answers to dst (one per host, in order) and returning the
// extended slice. Rows that fail normalization carry their error in
// Answer.Error instead of failing the batch. Row results land in the
// psl_serve_batch_rows_total counters — not the single-lookup families
// — with one counter flush for the whole batch.
func (s *Service) LookupBatch(hosts []string, dst []Answer) []Answer {
	var t0 time.Time
	if s.m != nil {
		t0 = time.Now()
	}
	st := s.st.Load()
	s.noteServed(st)
	var tally batchTally
	for _, h := range hosts {
		dst = append(dst, s.resolveBatchRow(st, h, &tally))
	}
	s.flushBatchTally(&tally)
	if s.m != nil {
		s.m.batch.Observe(time.Since(t0))
	}
	return dst
}

// handleBatch serves POST /v1/batch. NDJSON mode (the default) reads
// one hostname per line and answers with one JSON object per line;
// binary mode (Content-Type: application/x-psl-batch) exchanges "PSLB"
// / "PSLR" envelopes. Either way the whole body is read up front, rows
// are answered against one pinned snapshot, and the response is built
// in a pooled buffer and written once.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	select {
	case s.tokens <- struct{}{}:
		defer func() { <-s.tokens }()
	default:
		s.batchRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server overloaded"})
		return
	}
	s.admitted.Add(1)

	var t0 time.Time
	if s.m != nil {
		t0 = time.Now()
	}
	// Per-stage trace timings: decode (body read + wire parse), lookup
	// (the row loop, which resolves and row-encodes in one pass), encode
	// (response assembly and write). Stage appends are per request, not
	// per row, so the batch 0 B/row alloc guard is unaffected.
	tr := obs.TraceFrom(r.Context())
	sp := tr.Stage("decode")

	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)

	body, err := readAllInto(http.MaxBytesReader(w, r.Body, maxBatchBody), sc.body[:0])
	sc.body = body[:0:cap(body)] // keep grown capacity pooled even on error returns
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body: " + err.Error()})
		return
	}

	binaryMode := r.Header.Get("Content-Type") == BatchBinaryContentType
	if binaryMode {
		s.batchBinary.Add(1)
	} else {
		s.batchNDJSON.Add(1)
	}

	st := s.st.Load()
	s.noteServed(st)
	var tally batchTally
	out := sc.out[:0]
	rows := 0

	if binaryMode {
		it, count, perr := parseBatchRequest(body)
		if perr != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: perr.Error()})
			return
		}
		if count > s.opts.MaxBatch {
			writeBatchTooLarge(w, count, s.opts.MaxBatch)
			return
		}
		sp.End()
		sp = tr.Stage("lookup")
		out = appendBatchResponseHeader(out, count)
		for {
			host, done, nerr := it.next()
			if nerr != nil {
				sc.out = out[:0:cap(out)]
				writeJSON(w, http.StatusBadRequest, errorBody{Error: nerr.Error()})
				return
			}
			if done {
				break
			}
			sc.row = s.appendBatchRow(sc.row[:0], st, host, &tally)
			out = appendBatchResponseRow(out, sc.row)
			rows++
		}
		w.Header().Set("Content-Type", BatchBinaryContentType)
	} else {
		// NDJSON: count rows first so an oversized batch is rejected
		// before any answer is produced.
		count := countLines(body)
		if count > s.opts.MaxBatch {
			writeBatchTooLarge(w, count, s.opts.MaxBatch)
			return
		}
		sp.End()
		sp = tr.Stage("lookup")
		for rest := body; len(rest) > 0; {
			var line []byte
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line, rest = rest[:i], rest[i+1:]
			} else {
				line, rest = rest, nil
			}
			line = trimSpaceASCII(line)
			if len(line) == 0 {
				continue
			}
			sc.row = s.appendBatchRow(sc.row[:0], st, line, &tally)
			out = append(out, sc.row...)
			out = append(out, '\n')
			rows++
		}
		w.Header().Set("Content-Type", BatchNDJSONContentType)
	}

	sp.End()
	sp = tr.Stage("encode")
	s.flushBatchTally(&tally)
	if s.m != nil {
		s.m.batch.Observe(time.Since(t0))
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Header().Set("X-Batch-Rows", strconv.Itoa(rows))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
	sp.End()
	sc.out = out[:0:cap(out)]
}

// appendBatchRow answers one row and appends its JSON encoding to dst.
// Hosts that are not valid UTF-8 are answered with an error row (the
// JSON encoder requires valid UTF-8 strings).
//
// host is a view into the request buffer, and the row resolves it
// without a copy: every string in the answer may alias that buffer.
// This is safe only because the answer is encoded here, before the
// buffer is reused, and never leaves this frame — keep it that way.
func (s *Service) appendBatchRow(dst []byte, st *state, host []byte, t *batchTally) []byte {
	if !utf8.Valid(host) {
		t.errs++
		a := Answer{
			Version: st.snap.List.Version,
			Seq:     st.snap.Seq,
			Error:   "host is not valid UTF-8",
		}
		return appendAnswerJSON(dst, &a)
	}
	a := s.resolveBatchRow(st, unsafe.String(unsafe.SliceData(host), len(host)), t)
	return appendAnswerJSON(dst, &a)
}

// writeBatchTooLarge rejects a batch exceeding the row bound.
func writeBatchTooLarge(w http.ResponseWriter, count, max int) {
	writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
		Error: "batch of " + strconv.Itoa(count) + " rows exceeds limit " + strconv.Itoa(max),
	})
}

// countLines reports the number of non-empty lines in body.
func countLines(body []byte) int {
	n := 0
	for rest := body; len(rest) > 0; {
		var line []byte
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			line, rest = rest, nil
		}
		if len(trimSpaceASCII(line)) > 0 {
			n++
		}
	}
	return n
}

// trimSpaceASCII trims ASCII whitespace without the unicode machinery
// of bytes.TrimSpace (hostnames are ASCII-ish; anything exotic fails
// normalization per row anyway).
func trimSpaceASCII(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// batchScratch is the pooled per-request working set: the body buffer,
// one row's JSON, and the whole response. Capacities survive pooling,
// so a steady stream of same-shaped batches allocates nothing.
type batchScratch struct {
	body []byte
	row  []byte
	out  []byte
}

var batchScratchPool = sync.Pool{
	New: func() any {
		return &batchScratch{
			body: make([]byte, 0, 4096),
			row:  make([]byte, 0, 512),
			out:  make([]byte, 0, 4096),
		}
	},
}

// readAllInto is io.ReadAll into a caller-owned buffer, returning the
// (possibly re-grown) buffer.
func readAllInto(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// --- row JSON ---------------------------------------------------------

// appendAnswerJSON appends the JSON object for a — the same shape
// encoding/json produces for the Answer struct tags — without any
// allocation. Strings must be valid UTF-8 (batch rows are validated
// before resolution).
func appendAnswerJSON(dst []byte, a *Answer) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendJSONString(dst, a.Query)
	dst = append(dst, `,"host":`...)
	dst = appendJSONString(dst, a.Host)
	dst = append(dst, `,"etld":`...)
	dst = appendJSONString(dst, a.ETLD)
	if a.Site != "" {
		dst = append(dst, `,"site":`...)
		dst = appendJSONString(dst, a.Site)
	}
	if a.IsSuffix {
		dst = append(dst, `,"is_suffix":true`...)
	}
	dst = append(dst, `,"icann":`...)
	dst = appendBool(dst, a.ICANN)
	if a.Rule != "" {
		dst = append(dst, `,"rule":`...)
		dst = appendJSONString(dst, a.Rule)
	}
	dst = append(dst, `,"section":`...)
	dst = appendJSONString(dst, a.Section)
	dst = append(dst, `,"implicit":`...)
	dst = appendBool(dst, a.Implicit)
	dst = append(dst, `,"version":`...)
	dst = appendJSONString(dst, a.Version)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, int64(a.Seq), 10)
	if a.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, a.Error)
	}
	return append(dst, '}')
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaping quotes,
// backslashes and control characters. Multi-byte UTF-8 passes through
// verbatim (valid UTF-8 is a precondition).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
