// Package core implements the paper's measurement pipeline (Section 5):
// interpreting one HTTP Archive snapshot under every version of the
// public suffix list to quantify the privacy harm of out-of-date lists.
//
// It produces the series behind Figures 3 through 7 and the rows of
// Tables 1 through 3.
//
// The expensive part — assigning every hostname to its site (eTLD+1)
// under each of the 1,142 list versions — is done incrementally: a
// hostname's site can only change at versions that add or remove one of
// the few rules able to match it, so the pipeline computes per-host
// changepoints from the history's rule spans instead of re-matching
// every hostname 1,142 times. Those rules depend only on the host's
// longest matching rule key and on whether the host is that key, so the
// build evaluates two suffix-label step functions per key, once, and a
// host costs the suffix probes that find its key. The hosts are split
// into one contiguous chunk per worker (runtime.GOMAXPROCS(0) of them);
// a step that repeats a site of the previous host links to it, and
// every other site is interned by the worker that owns its 64-bit FNV-1a
// hash, so no intern tables are merged. Every host's step function lives
// in three flat arrays rather than per-host slices. The build also keeps
// each host's suffix-label count under the latest version, from which
// Table 2 counts hosts per public suffix without re-matching the
// snapshot. BenchmarkPipelineBuild (run with -cpu 1,2) measures the
// build; TestIncrementalMatchesFull, TestDivergenceMatchesFull and
// TestTable2CountsMatchPublicSuffix prove equivalence with from-scratch
// matching, and TestPipelineWorkersAgree that every worker count builds
// the same step functions and sites.
package core

import (
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/domain"
	"repro/internal/history"
	"repro/internal/httparchive"
)

// Pipeline holds the per-host site assignments for one snapshot over
// one history.
type Pipeline struct {
	H    *history.History
	Snap *httparchive.Snapshot

	// rules is the history's rule spans keyed by literal suffix, as of
	// the build; the tables reuse it.
	rules map[string]suffixRules

	// Host hi's step function occupies [off[hi], off[hi+1]) of seqs and
	// site; see steps.
	off  []int32
	seqs []int32
	site []int32
	// finalSL[hi] is host hi's suffix-label count under the latest
	// version (at least 1).
	finalSL []uint8
	// siteNames interns site strings; site values index it.
	siteNames []string
	// workers is the number of goroutines the build and Figure 6 use.
	workers int
}

// suffixRules holds the presence spans of the three rules that can be
// written over one literal suffix s: "s", "!s" and "*.s".
type suffixRules struct {
	normal, exception, wildcard []history.Span
}

// ruleSpansBySuffix re-keys history.RuleSpans by literal suffix.
func ruleSpansBySuffix(spans map[string][]history.Span) map[string]suffixRules {
	out := make(map[string]suffixRules, len(spans))
	for key, ss := range spans {
		switch {
		case strings.HasPrefix(key, "!"):
			r := out[key[1:]]
			r.exception = ss
			out[key[1:]] = r
		case strings.HasPrefix(key, "*."):
			r := out[key[2:]]
			r.wildcard = ss
			out[key[2:]] = r
		default:
			r := out[key]
			r.normal = ss
			out[key] = r
		}
	}
	return out
}

// steps returns host hi's step function from version sequence to
// interned site, as views into the flat arrays: seqs[0] is always 0, and
// the host's site is site[k] for versions in [seqs[k], seqs[k+1]). Two
// slices rather than a struct of them keep the figure loops in
// registers.
func (p *Pipeline) steps(hi int) (seqs, site []int32) {
	lo, end := p.off[hi], p.off[hi+1]
	return p.seqs[lo:end:end], p.site[lo:end:end]
}

// hosts is the number of hosts the pipeline assigns.
func (p *Pipeline) hosts() int { return len(p.off) - 1 }

// siteAtSeq returns the site id a step function gives version seq.
func siteAtSeq(seqs, site []int32, seq int) int32 {
	// Linear walk: step functions rarely exceed a handful of steps.
	k := 0
	for k+1 < len(seqs) && int(seqs[k+1]) <= seq {
		k++
	}
	return site[k]
}

// candidate is one rule that could match a host.
type candidate struct {
	// spans are the version intervals during which the rule exists.
	spans []history.Span
	// labels is the suffix-label count the rule yields when prevailing.
	labels int
	// exception marks exception rules, which beat everything.
	exception bool
}

// NewPipeline computes site assignments for every host in the snapshot,
// on runtime.GOMAXPROCS(0) workers. Hosts must be canonical
// (psl.Normalize returns them unchanged), as httparchive.Generate and
// ReadSnapshot guarantee.
func NewPipeline(h *history.History, snap *httparchive.Snapshot) *Pipeline {
	return newPipeline(h, snap, runtime.GOMAXPROCS(0))
}

// newPipeline builds on the given number of workers. Every worker count
// yields the same step functions and site strings; site ids depend on
// the count but repeat from run to run for a given one.
func newPipeline(h *history.History, snap *httparchive.Snapshot, workers int) *Pipeline {
	hosts := snap.Hosts
	nh := len(hosts)
	workers = max(1, min(workers, nh))
	p := &Pipeline{
		H:       h,
		Snap:    snap,
		rules:   ruleSpansBySuffix(h.RuleSpans()),
		off:     make([]int32, nh+1),
		finalSL: make([]uint8, nh),
		workers: workers,
	}
	fns := newKeySteps(p.rules, h.Len())

	// Pass 1: each worker walks one contiguous chunk of hosts.
	chunks := make([]chunk, workers)
	parallel(workers, func(c int) {
		chunks[c].walk(p, fns, c*nh/workers, (c+1)*nh/workers, workers)
	})

	// Pass 2: worker w interns the sites whose hash it owns, from every
	// chunk in order, so its ids repeat from run to run. Its names fill
	// its own region of one array, sized by the sites it owns.
	region := make([]int, workers+1)
	for w := range workers {
		region[w+1] = region[w]
		for c := range chunks {
			region[w+1] += chunks[c].owned[w]
		}
	}
	names := make([]string, region[workers])
	shards := make([][]string, workers)
	ids := make([][][]int32, workers)
	parallel(workers, func(w int) {
		shards[w], ids[w] = internShard(chunks, hosts, w, names[region[w]:region[w]:region[w+1]])
	})
	// Interning was the recorded sites' last use.
	for c := range chunks {
		chunks[c].sites = nil
	}

	// Pass 3: close the gaps between the regions; a site's final id is
	// its shard's base plus its local id. Each chunk fills its own range
	// of the flat arrays.
	base := make([]int32, workers)
	sites := 0
	for w, shard := range shards {
		base[w] = int32(sites)
		sites += copy(names[sites:], shard)
	}
	clear(names[sites:])
	p.siteNames = names[:sites:sites]
	stepBase := make([]int, workers+1)
	for c := range chunks {
		stepBase[c+1] = stepBase[c] + len(chunks[c].seqs)
	}
	p.seqs = make([]int32, stepBase[workers])
	p.site = make([]int32, stepBase[workers])
	parallel(workers, func(c int) {
		chunks[c].resolve(p, stepBase[c], c, base, ids)
	})
	return p
}

// parallel runs fn(0) through fn(workers-1) on their own goroutines and
// returns when all have.
func parallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// keySteps holds, for every rule key (literal suffix with rules), the
// suffix-label step function of a host whose longest matching key it
// is. Only the key and whether the host equals it matter: every rule
// able to match such a host is written over the key or one of its
// suffixes, and the wildcard over the key applies only to longer hosts.
type keySteps struct {
	// index maps a key to k: function 2k serves the host equal to the
	// key, 2k+1 longer hosts. Function 2*len(index) serves hosts no key
	// matches: the implicit rule throughout.
	index map[string]int32
	// Function f's steps occupy [off[f], off[f+1]) of seqs and sl.
	off  []int32
	seqs []int32
	sl   []uint8
}

// newKeySteps evaluates both step functions of every key over the n
// versions of the history the rules came from.
func newKeySteps(rules map[string]suffixRules, n int) *keySteps {
	ks := &keySteps{
		index: make(map[string]int32, len(rules)),
		off:   make([]int32, 1, 2*len(rules)+2),
		seqs:  make([]int32, 0, 4*len(rules)),
		sl:    make([]uint8, 0, 4*len(rules)),
	}
	keys := make([]string, 0, len(rules))
	for key := range rules {
		ks.index[key] = int32(len(keys))
		keys = append(keys, key)
	}
	var cands []candidate
	var breaks []int
	for _, key := range keys {
		for _, longer := range []bool{false, true} {
			// Gather candidate rules: for every suffix s of the key, a
			// normal rule "s", an exception rule "!s", and — when s is a
			// proper suffix of the host — a wildcard rule "*.s".
			cands = cands[:0]
			s, labels := key, domain.CountLabels(key)
			for {
				r := rules[s]
				if r.normal != nil {
					cands = append(cands, candidate{spans: r.normal, labels: labels})
				}
				if r.exception != nil {
					cands = append(cands, candidate{spans: r.exception, labels: labels - 1, exception: true})
				}
				if r.wildcard != nil && (longer || len(s) < len(key)) {
					cands = append(cands, candidate{spans: r.wildcard, labels: labels + 1})
				}
				i := strings.IndexByte(s, '.')
				if i < 0 {
					break
				}
				s, labels = s[i+1:], labels-1
			}
			breaks = ks.appendSteps(cands, breaks, n)
		}
	}
	ks.seqs = append(ks.seqs, 0)
	ks.sl = append(ks.sl, 1)
	ks.off = append(ks.off, int32(len(ks.seqs)))
	return ks
}

// appendSteps appends the step function the candidates yield and
// returns the breaks scratch for reuse.
func (ks *keySteps) appendSteps(cands []candidate, breaks []int, n int) []int {
	// Changepoints: the boundaries of every candidate span.
	breaks = append(breaks[:0], 0)
	for _, c := range cands {
		for _, sp := range c.spans {
			if sp.From > 0 && sp.From < n {
				breaks = append(breaks, sp.From)
			}
			if sp.To > 0 && sp.To < n {
				breaks = append(breaks, sp.To)
			}
		}
	}
	sort.Ints(breaks)

	// A step starts wherever the suffix-label count changes.
	prevSL := -1
	for k, seq := range breaks {
		if k > 0 && seq == breaks[k-1] {
			continue
		}
		sl := max(suffixLabelsAt(cands, seq), 1)
		if sl == prevSL {
			continue
		}
		prevSL = sl
		ks.seqs = append(ks.seqs, int32(seq))
		ks.sl = append(ks.sl, uint8(sl))
	}
	ks.off = append(ks.off, int32(len(ks.seqs)))
	return breaks
}

// find returns the step function of a host: it probes the host's
// suffixes left to right and stops at the first key.
func (ks *keySteps) find(host string) (seqs []int32, sl []uint8) {
	f := int32(2 * len(ks.index))
	for s := host; ; {
		if k, ok := ks.index[s]; ok {
			f = 2 * k
			if len(s) < len(host) {
				f++
			}
			break
		}
		i := strings.IndexByte(s, '.')
		if i < 0 {
			break
		}
		s = s[i+1:]
	}
	lo, hi := ks.off[f], ks.off[f+1]
	return ks.seqs[lo:hi], ks.sl[lo:hi]
}

// chunk is one worker's share of the build: the steps of a contiguous
// range of hosts, with each step's site either linked to an equal site
// of the previous host or recorded, with its hash, for interning.
type chunk struct {
	// The chunk holds hosts [lo, end).
	lo, end int
	seqs    []int32
	// link[j] >= 0 is the chunk step whose site step j repeats; -1-w
	// marks step j's site as the next entry of sites, owned by shard w.
	link  []int32
	sites []siteRef
	// owned[w] counts the sites entries whose hash shard w owns.
	owned []int
}

// siteRef names a site as the tail of a snapshot host, with its hash.
type siteRef struct {
	hash  uint64
	host  int32
	start int32
}

// walk computes the steps of hosts [lo, end), writing their chunk-local
// step ends to p.off and their latest suffix-label counts to p.finalSL.
func (c *chunk) walk(p *Pipeline, fns *keySteps, lo, end, workers int) {
	hosts := p.Snap.Hosts
	c.lo, c.end = lo, end
	// Room for 1.5 steps and one recorded site per host.
	steps := (end - lo) * 3 / 2
	c.seqs = make([]int32, 0, steps)
	c.link = make([]int32, 0, steps)
	c.sites = make([]siteRef, 0, end-lo)
	c.owned = make([]int, workers)
	// The generator emits hosts site by site, so a step often repeats a
	// site of the previous host; prev holds those sites, from step
	// prevBase on.
	var prev, cur []string
	prevBase := 0
	for hi := lo; hi < end; hi++ {
		host := hosts[hi]
		seqs, sl := fns.find(host)
		total := domain.CountLabels(host)
		base := len(c.seqs)
		cur = cur[:0]
		for k, seq := range seqs {
			site := siteOf(host, total, int(sl[k]))
			link := int32(-1)
			for j, s := range prev {
				if s == site {
					link = int32(prevBase + j)
					break
				}
			}
			if link < 0 {
				h := fnv1a(site)
				w := h % uint64(workers)
				c.sites = append(c.sites, siteRef{hash: h, host: int32(hi), start: int32(len(host) - len(site))})
				c.owned[w]++
				link = -1 - int32(w)
			}
			c.seqs = append(c.seqs, seq)
			c.link = append(c.link, link)
			cur = append(cur, site)
		}
		p.off[hi+1] = int32(len(c.seqs))
		p.finalSL[hi] = sl[len(sl)-1]
		prev, cur = cur, prev
		prevBase = base
	}
}

// internShard interns, in chunk order, the sites of every chunk whose
// hash shard w owns, appending their names to names, which has room for
// all of them. It returns the names and, per chunk, the local id of each
// owned site in order.
func internShard(chunks []chunk, hosts []string, w int, names []string) ([]string, [][]int32) {
	shards := uint64(len(chunks))
	t := newSiteTable(names)
	ids := make([][]int32, len(chunks))
	for c := range chunks {
		ids[c] = make([]int32, 0, chunks[c].owned[w])
		for _, r := range chunks[c].sites {
			if r.hash%shards == uint64(w) {
				ids[c] = append(ids[c], t.intern(r.hash, hosts[r.host][r.start:]))
			}
		}
	}
	return t.names, ids
}

// resolve writes chunk ci's steps, which start at step first, into the
// pipeline's flat arrays, with final site ids: a recorded site's id is
// its shard's base plus its local id, and a link copies the id of the
// step it repeats. It rebases the step ends of the chunk's hosts.
func (c *chunk) resolve(p *Pipeline, first, ci int, base []int32, ids [][][]int32) {
	copy(p.seqs[first:], c.seqs)
	next := make([]int, len(base))
	site := p.site[first : first+len(c.seqs)]
	for j, l := range c.link {
		if l >= 0 {
			site[j] = site[l]
			continue
		}
		w := -1 - l
		site[j] = base[w] + ids[w][ci][next[w]]
		next[w]++
	}
	for hi := c.lo; hi < c.end; hi++ {
		p.off[hi+1] += int32(first)
	}
}

// fnv1a is the 64-bit FNV-1a hash of s.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// siteTable interns the sites of one hash shard, keyed by hash. A site
// whose hash an earlier, different site already holds is a true 64-bit
// collision and is interned by string instead.
type siteTable struct {
	byHash   map[uint64]int32
	collided map[string]int32
	names    []string
}

// newSiteTable returns an empty table that appends names to names,
// sized for cap(names) sites.
func newSiteTable(names []string) *siteTable {
	return &siteTable{byHash: make(map[uint64]int32, cap(names)), names: names[:0]}
}

// intern returns site's local id, given its hash h.
func (t *siteTable) intern(h uint64, site string) int32 {
	id, ok := t.byHash[h]
	switch {
	case !ok:
		t.byHash[h] = int32(len(t.names))
	case t.names[id] == site:
		return id
	default:
		if id, ok := t.collided[site]; ok {
			return id
		}
		if t.collided == nil {
			t.collided = make(map[string]int32)
		}
		t.collided[site] = int32(len(t.names))
	}
	t.names = append(t.names, site)
	return int32(len(t.names) - 1)
}

// suffixLabelsAt evaluates the matching algorithm over the candidate
// rules active at version seq: exceptions prevail, otherwise the most
// labels win, otherwise the implicit rule (one label).
func suffixLabelsAt(cands []candidate, seq int) int {
	best := 1
	for _, c := range cands {
		if !activeAt(c.spans, seq) {
			continue
		}
		if c.exception {
			return c.labels
		}
		if c.labels > best {
			best = c.labels
		}
	}
	return best
}

// activeAt reports whether any span contains seq.
func activeAt(spans []history.Span, seq int) bool {
	for _, sp := range spans {
		if seq >= sp.From && seq < sp.To {
			return true
		}
	}
	return false
}

// siteOf derives the site (eTLD+1, or the host itself when the host is
// a bare suffix) from the host and its suffix-label count (at least 1).
func siteOf(host string, totalLabels, suffixLabels int) string {
	if totalLabels <= suffixLabels {
		return host
	}
	return domain.LastLabels(host, suffixLabels+1)
}

// SiteName resolves an interned site id.
func (p *Pipeline) SiteName(id int32) string { return p.siteNames[id] }

// SiteAt returns the site of host index hi at version seq (mostly for
// tests and spot checks; the series methods never call it in a loop).
func (p *Pipeline) SiteAt(hi, seq int) string {
	seqs, site := p.steps(hi)
	return p.siteNames[siteAtSeq(seqs, site, seq)]
}

// FinalSite returns the site of host index hi under the latest version.
func (p *Pipeline) FinalSite(hi int) string {
	return p.siteNames[p.FinalSiteID(hi)]
}

// FinalSiteID returns the interned site id of host index hi under the
// latest version; ids are stable within one pipeline.
func (p *Pipeline) FinalSiteID(hi int) int32 {
	return p.site[p.off[hi+1]-1]
}

// hostsBySuffix counts the snapshot's hostnames grouped by public suffix
// under the latest version — the quantity Table 2 reports per eTLD —
// from the suffix-label counts the build recorded.
func (p *Pipeline) hostsBySuffix() map[string]int {
	out := make(map[string]int, 4096)
	for hi, host := range p.Snap.Hosts {
		out[domain.LastLabels(host, int(p.finalSL[hi]))]++
	}
	return out
}

// addedSeq returns the version that introduced the rule creating a
// literal suffix — the suffix's normal rule, else the wildcard rule over
// its parent — or false for implicit-rule suffixes.
func (p *Pipeline) addedSeq(suffix string) (int, bool) {
	if ss := p.rules[suffix].normal; ss != nil {
		return ss[0].From, true
	}
	if parent, ok := domain.Parent(suffix); ok {
		if ss := p.rules[parent].wildcard; ss != nil {
			return ss[0].From, true
		}
	}
	return 0, false
}
