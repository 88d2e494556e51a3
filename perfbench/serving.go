package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/psl"
	"repro/internal/serve"
)

// Serving-workload shape. Two connections from two goroutines match the
// host's two CPUs; the server shares them, so adding clients would only
// measure the client.
const (
	serveConns     = 2
	lookupPool     = 4096 // distinct lookup hosts; fits the 65,536-entry answer cache
	lookupZipfS    = 1.1
	lookupStream   = 1 << 17 // Zipf draws per connection, cycled
	batchRows      = 256
	warmup         = time.Second
	serverSetups   = 5 // spawns per run; setup_s is their median
	linearCrossChk = 400
)

// servingInputs is everything a serving workload sends and expects.
type servingInputs struct {
	head *psl.List
	seq  int

	hosts  []string
	expect [][]byte // expected JSON answer per host, uncached form

	// lookup: one prebuilt GET per host, and per-connection Zipf streams
	// of host indexes.
	reqs    [][]byte
	streams [][]int32

	// crawl-batch: prebuilt POST requests of batchRows hosts each.
	batches    [][]byte
	batchHosts [][]int32

	digest string
}

// servedHistory regenerates the history pslserver serves by default
// (same seed, full 1,142 versions) and returns it with its head.
func servedHistory() (*history.History, *psl.List, int) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	seq := h.Len() - 1
	return h, h.ListAt(seq), seq
}

// lookupHosts derives n distinct valid hosts from the list's rules: one
// or two random labels under a seeded sample of rules (two under
// wildcards, so the wildcard label is filled), about one in ten written
// in Unicode form where the rule has one, so IDNA runs on misses.
func lookupHosts(l *psl.List, n int, rng *rand.Rand) []string {
	rules := l.Rules()
	snap := serve.NewSnapshot(l, -1)
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for _, i := range rng.Perm(len(rules)) {
		if len(out) == n {
			break
		}
		r := rules[i]
		base := r.Suffix
		if u := r.Unicode(); rng.Intn(10) == 0 && u != "" {
			base = trimRuleSyntax(u)
		}
		host := fmt.Sprintf("h%06x.%s", rng.Intn(1<<24), base)
		if r.Wildcard || rng.Intn(3) == 0 {
			host = fmt.Sprintf("w%04x.%s", rng.Intn(1<<16), host)
		}
		if seen[host] {
			continue
		}
		if _, err := snap.Resolve(host); err != nil {
			continue
		}
		seen[host] = true
		out = append(out, host)
	}
	return out
}

// trimRuleSyntax strips the "*." and "!" rule prefixes from a rule in
// list-file syntax, leaving its suffix.
func trimRuleSyntax(s string) string {
	for len(s) > 0 && (s[0] == '!' || s[0] == '*' || s[0] == '.') {
		s = s[1:]
	}
	return s
}

// crawlHosts returns the unique hostnames of the scale-1.0 HTTP Archive
// snapshot generated for the served history, in generation order.
func crawlHosts(h *history.History) []string {
	return httparchive.Generate(httparchive.Config{Seed: history.DefaultSeed, Scale: 1}, h).Hosts
}

// expectedAnswers computes every host's answer with the library — the
// list's default matcher, not the packed matcher the server runs — and
// cross-checks it against List.PublicSuffix and List.Site for every
// host and against the linear reference matcher for a seeded sample.
// The result is the uncached JSON form of each answer.
func expectedAnswers(l *psl.List, seq int, hosts []string, rng *rand.Rand) ([][]byte, error) {
	ref := serve.NewSnapshotWith(l, seq, l.Matcher())
	lin := serve.NewSnapshotWith(l, seq, psl.NewLinearMatcher(l))
	out := make([][]byte, len(hosts))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(hosts); i += workers {
				a, err := ref.Resolve(hosts[i])
				if err == nil {
					err = crossCheck(l, hosts[i], a)
				}
				if err != nil {
					errs[w] = fmt.Errorf("host %q: %w", hosts[i], err)
					return
				}
				out[i], _ = json.Marshal(a)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for k := 0; k < linearCrossChk && k < len(hosts); k++ {
		i := rng.Intn(len(hosts))
		a, err := lin.Resolve(hosts[i])
		if err != nil {
			return nil, err
		}
		if b, _ := json.Marshal(a); !bytes.Equal(b, out[i]) {
			return nil, fmt.Errorf("host %q: map matcher %s, linear matcher %s", hosts[i], out[i], b)
		}
	}
	return out, nil
}

// crossCheck compares an answer with the list's own PublicSuffix/Site.
func crossCheck(l *psl.List, host string, a serve.Answer) error {
	suffix, icann, err := l.PublicSuffix(host)
	if err != nil {
		return err
	}
	if suffix != a.ETLD || icann != a.ICANN {
		return fmt.Errorf("answer etld %q icann %v, library %q %v", a.ETLD, a.ICANN, suffix, icann)
	}
	site, err := l.Site(host)
	if a.IsSuffix != (err != nil) || (err == nil && site != a.Site) {
		return fmt.Errorf("answer site %q, library %q (%v)", a.Site, site, err)
	}
	return nil
}

const cachedTail = `,"cached":true}`

// answerMatches accepts got when it is exp, or exp marked as served
// from the answer cache.
func answerMatches(got, exp []byte) bool {
	if bytes.Equal(got, exp) {
		return true
	}
	n := len(exp) - 1
	return len(got) == n+len(cachedTail) && bytes.Equal(got[:n], exp[:n]) && string(got[n:]) == cachedTail
}

// newLookupInputs builds the lookup workload's inputs from seed.
func newLookupInputs(seed int64) (*servingInputs, error) {
	_, head, seq := servedHistory()
	rng := rand.New(rand.NewSource(seed))
	in := &servingInputs{head: head, seq: seq, hosts: lookupHosts(head, lookupPool, rng)}
	var err error
	if in.expect, err = expectedAnswers(head, seq, in.hosts, rng); err != nil {
		return nil, err
	}
	for _, hst := range in.hosts {
		in.reqs = append(in.reqs, []byte("GET "+serve.LookupPath+"?host="+url.QueryEscape(hst)+" HTTP/1.1\r\nHost: bench\r\n\r\n"))
	}
	for c := 0; c < serveConns; c++ {
		z := rand.NewZipf(rand.New(rand.NewSource(seed*31+int64(c)+1)), lookupZipfS, 1, uint64(len(in.hosts)-1))
		s := make([]int32, lookupStream)
		for i := range s {
			s[i] = int32(z.Uint64())
		}
		in.streams = append(in.streams, s)
	}
	in.digest = digestInputs(in.hosts, in.streams)
	return in, nil
}

// newCrawlInputs builds the crawl-batch workload's inputs from seed: the
// snapshot's hosts shuffled, cut into batches of batchRows.
func newCrawlInputs(seed int64) (*servingInputs, error) {
	h, head, seq := servedHistory()
	hosts := crawlHosts(h)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	in := &servingInputs{head: head, seq: seq, hosts: hosts}
	var err error
	if in.expect, err = expectedAnswers(head, seq, hosts, rng); err != nil {
		return nil, err
	}
	for lo := 0; lo < len(hosts); lo += batchRows {
		hi := min(lo+batchRows, len(hosts))
		body, err := serve.EncodeBatchRequest(hosts[lo:hi])
		if err != nil {
			return nil, err
		}
		req := []byte("POST " + serve.BatchPath + " HTTP/1.1\r\nHost: bench\r\nContent-Type: " +
			serve.BatchBinaryContentType + "\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n")
		in.batches = append(in.batches, append(req, body...))
		idx := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, int32(i))
		}
		in.batchHosts = append(in.batchHosts, idx)
	}
	in.digest = digestInputs(hosts, nil)
	return in, nil
}

// digestInputs hashes generated inputs in order.
func digestInputs(hosts []string, streams [][]int32) string {
	d := sha256.New()
	for _, h := range hosts {
		io.WriteString(d, h)
		d.Write([]byte{0})
	}
	var b [4]byte
	for _, s := range streams {
		for _, v := range s {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			d.Write(b[:])
		}
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}

// rawConn is a minimal HTTP/1.1 keep-alive client connection: it writes
// prebuilt requests and reads Content-Length-framed responses into a
// reused buffer, so the client spends as little of the shared CPUs as
// possible.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

var errFraming = errors.New("unsupported response framing")

// roundTrip sends one request and returns the status and body; the body
// is valid until the next call.
func (rc *rawConn) roundTrip(req []byte) (int, []byte, error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errFraming
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errFraming
	}
	length := -1
	for {
		h, err := rc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		if len(h) > 15 && asciiEqualFold(h[:15], "content-length:") {
			length, err = strconv.Atoi(string(bytes.TrimSpace(h[15:])))
			if err != nil {
				return 0, nil, errFraming
			}
		}
	}
	if length < 0 {
		return 0, nil, errFraming
	}
	if cap(rc.body) < length {
		rc.body = make([]byte, length)
	}
	rc.body = rc.body[:length]
	if _, err := io.ReadFull(rc.br, rc.body); err != nil {
		return 0, nil, err
	}
	return status, rc.body, nil
}

func asciiEqualFold(b []byte, lower string) bool {
	for i := range b {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// servingOps adapts one serving workload to the closed loop.
type servingOps interface {
	// request returns the next request of connection conn and a key
	// identifying what it asked for.
	request(conn int, n int64) ([]byte, int)
	// check validates a response and returns the units it completed
	// (requests or host rows).
	check(key, status int, body []byte) (int64, error)
}

type lookupOps struct{ in *servingInputs }

func (o lookupOps) request(conn int, n int64) ([]byte, int) {
	s := o.in.streams[conn]
	k := int(s[n%int64(len(s))])
	return o.in.reqs[k], k
}

func (o lookupOps) check(key, status int, body []byte) (int64, error) {
	if status != 200 {
		return 0, fmt.Errorf("lookup %q: status %d: %s", o.in.hosts[key], status, body)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' || !answerMatches(body[:len(body)-1], o.in.expect[key]) {
		return 0, fmt.Errorf("lookup %q: wrong answer %s, want %s", o.in.hosts[key], body, o.in.expect[key])
	}
	return 1, nil
}

type crawlOps struct {
	in   *servingInputs
	next *atomic.Int64 // shared batch cursor: each host once per pass
}

func (o crawlOps) request(int, int64) ([]byte, int) {
	b := int((o.next.Add(1) - 1) % int64(len(o.in.batches)))
	return o.in.batches[b], b
}

func (o crawlOps) check(key, status int, body []byte) (int64, error) {
	if status != 200 {
		return 0, fmt.Errorf("batch %d: status %d", key, status)
	}
	rows, err := serve.DecodeBatchResponse(body)
	if err != nil {
		return 0, fmt.Errorf("batch %d: %w", key, err)
	}
	want := o.in.batchHosts[key]
	if len(rows) != len(want) {
		return 0, fmt.Errorf("batch %d: %d rows, want %d", key, len(rows), len(want))
	}
	for i, hi := range want {
		if !answerMatches(rows[i], o.in.expect[hi]) {
			return 0, fmt.Errorf("batch %d row %d: wrong answer %s, want %s", key, i, rows[i], o.in.expect[hi])
		}
	}
	return int64(len(rows)), nil
}

// loopResult is one closed-loop phase.
type loopResult struct {
	lat       []float64 // per-op latency, ns, measured ops only
	units     int64     // requests or host rows completed correctly
	attempted int64
	failed    int64
	elapsed   time.Duration
	firstErr  error
	spans     []Span
	windows   []float64 // units completed per rateWindow, whole windows only
}

// rateWindow is the window closedLoop counts completions in.
const rateWindow = 500 * time.Millisecond

// closedLoop runs serveConns connections, each sending its next request
// only after the previous response arrived and was checked, for d. An
// operation's latency is its round trip; the check that follows is not
// timed. With a tracer epoch it records one span per round trip.
func closedLoop(ctx context.Context, addr string, ops servingOps, d time.Duration, counter []int64, traceEpoch *time.Time) loopResult {
	type part struct {
		loopResult
		tr *Tracer
	}
	parts := make([]part, serveConns)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			if traceEpoch != nil {
				p.tr = &Tracer{epoch: *traceEpoch, spans: make([]Span, 0, 1<<16)}
			}
			p.lat = make([]float64, 0, 1<<16)
			p.windows = make([]float64, int(d/rateWindow)+2)
			var rc *rawConn
			defer func() {
				if rc != nil {
					rc.c.Close()
				}
			}()
			for n := counter[c]; ctx.Err() == nil; n++ {
				t0 := time.Now()
				if !t0.Before(end) {
					counter[c] = n
					return
				}
				if rc == nil {
					var err error
					if rc, err = dialRaw(addr); err != nil {
						p.attempted++
						p.failed++
						if p.firstErr == nil {
							p.firstErr = err
						}
						time.Sleep(10 * time.Millisecond)
						continue
					}
					_ = rc.c.SetDeadline(end.Add(30 * time.Second))
				}
				req, key := ops.request(c, n)
				sp := p.tr.Begin("net.request", n, -1)
				status, body, err := rc.roundTrip(req)
				p.tr.End(sp, 1)
				t1 := time.Now()
				var units int64
				if err == nil {
					units, err = ops.check(key, status, body)
				} else {
					rc.c.Close()
					rc = nil
				}
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.units += units
				p.lat = append(p.lat, float64(t1.Sub(t0)))
				if w := int(t1.Sub(start) / rateWindow); w < len(p.windows) {
					p.windows[w] += float64(units)
				}
			}
		}(c)
	}
	wg.Wait()
	var r loopResult
	r.elapsed = time.Since(start)
	r.windows = make([]float64, int(d/rateWindow))
	for _, p := range parts {
		for i := range r.windows {
			r.windows[i] += p.windows[i]
		}
		r.lat = append(r.lat, p.lat...)
		r.units += p.units
		r.attempted += p.attempted
		r.failed += p.failed
		if r.firstErr == nil {
			r.firstErr = p.firstErr
		}
		r.spans = append(r.spans, p.tr.Spans()...)
	}
	return r
}
