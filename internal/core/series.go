package core

import (
	"repro/internal/httparchive"
	"repro/internal/psl"
)

// SitesPoint is one sample of the Figure 5 series.
type SitesPoint struct {
	// Seq is the list version.
	Seq int
	// Sites is the number of distinct sites the snapshot's hostnames
	// form under that version.
	Sites int
	// MeanSize is the mean number of hostnames per site.
	MeanSize float64
}

// SitesSeries computes Figure 5: the number of distinct sites formed by
// the snapshot's hostnames under every list version, by sweeping host
// site-change events over a running multiset of sites.
func (p *Pipeline) SitesSeries() []SitesPoint {
	n := p.H.Len()
	counts := make([]int32, len(p.siteNames))
	distinct := 0

	// Every step at version 0 is a host's first site; every later step is
	// a site-change event. Bucket the events by version: those of
	// version seq are events[first[seq]:first[seq+1]], in host order.
	type change struct{ from, to int32 }
	first := make([]int32, n+1)
	for j, seq := range p.seqs {
		if seq == 0 {
			counts[p.site[j]]++
			if counts[p.site[j]] == 1 {
				distinct++
			}
			continue
		}
		first[seq+1]++
	}
	for seq := 1; seq <= n; seq++ {
		first[seq] += first[seq-1]
	}
	events := make([]change, first[n])
	next := append([]int32(nil), first...)
	for j, seq := range p.seqs {
		if seq != 0 {
			events[next[seq]] = change{from: p.site[j-1], to: p.site[j]}
			next[seq]++
		}
	}

	hosts := float64(p.hosts())
	out := make([]SitesPoint, 0, n)
	for seq := 0; seq < n; seq++ {
		for _, c := range events[first[seq]:first[seq+1]] {
			counts[c.from]--
			if counts[c.from] == 0 {
				distinct--
			}
			counts[c.to]++
			if counts[c.to] == 1 {
				distinct++
			}
		}
		out = append(out, SitesPoint{Seq: seq, Sites: distinct, MeanSize: hosts / float64(distinct)})
	}
	return out
}

// ThirdPartySeries computes Figure 6: the number of requests classified
// third-party under every list version. A request is third-party when
// the page host and request host map to different sites (Section 2).
// The build's workers each take a contiguous share of the pairs into
// their own difference array; the arrays are summed at the end.
func (p *Pipeline) ThirdPartySeries() []int64 {
	n := p.H.Len()
	pairs := p.Snap.Pairs
	diffs := make([][]int64, p.workers)
	parallel(p.workers, func(w int) {
		diffs[w] = p.thirdPartyDiff(pairs[w*len(pairs)/p.workers : (w+1)*len(pairs)/p.workers])
	})
	out := make([]int64, n)
	var run int64
	for seq := 0; seq < n; seq++ {
		for _, diff := range diffs {
			run += diff[seq]
		}
		out[seq] = run
	}
	return out
}

// thirdPartyDiff returns the difference array of the third-party counts
// of the given pairs: the count at version seq is the sum of entries up
// to seq.
func (p *Pipeline) thirdPartyDiff(pairs []httparchive.Pair) []int64 {
	n := p.H.Len()
	diff := make([]int64, n+1)
	for _, pair := range pairs {
		pSeqs, pSite := p.steps(int(pair.Page))
		rSeqs, rSite := p.steps(int(pair.Req))
		// Merge the two step functions, emitting intervals where the
		// sites differ.
		i, j := 0, 0
		start := 0
		for start < n {
			// Current values and next boundaries.
			for i+1 < len(pSeqs) && int(pSeqs[i+1]) <= start {
				i++
			}
			for j+1 < len(rSeqs) && int(rSeqs[j+1]) <= start {
				j++
			}
			end := n
			if i+1 < len(pSeqs) && int(pSeqs[i+1]) < end {
				end = int(pSeqs[i+1])
			}
			if j+1 < len(rSeqs) && int(rSeqs[j+1]) < end {
				end = int(rSeqs[j+1])
			}
			if pSite[i] != rSite[j] {
				diff[start] += int64(pair.Count)
				diff[end] -= int64(pair.Count)
			}
			start = end
		}
	}
	return diff
}

// DivergenceSeries computes Figure 7: for every version, the number of
// hostnames whose site under that version differs from their site under
// the most recent version.
func (p *Pipeline) DivergenceSeries() []int {
	n := p.H.Len()
	diff := make([]int, n+1)
	for hi := 0; hi < p.hosts(); hi++ {
		seqs, site := p.steps(hi)
		final := site[len(site)-1]
		for k := 0; k < len(seqs); k++ {
			if site[k] == final {
				continue
			}
			from := int(seqs[k])
			to := n
			if k+1 < len(seqs) {
				to = int(seqs[k+1])
			}
			diff[from]++
			diff[to]--
		}
	}
	out := make([]int, n)
	run := 0
	for seq := 0; seq < n; seq++ {
		run += diff[seq]
		out[seq] = run
	}
	return out
}

// SiteSizeDistribution computes, for one version, how many sites have
// each hostname count — the "size and composition of the sites that are
// formed" the paper's Section 5 methodology describes. Keys are site
// sizes (hostnames per site), values are the number of sites of that
// size.
func (p *Pipeline) SiteSizeDistribution(seq int) map[int]int {
	counts := make(map[int32]int, len(p.siteNames))
	for hi := 0; hi < p.hosts(); hi++ {
		seqs, site := p.steps(hi)
		counts[siteAtSeq(seqs, site, seq)]++
	}
	dist := make(map[int]int)
	for _, n := range counts {
		dist[n]++
	}
	return dist
}

// MisclassifiedFirstPartySeries counts, for every version, the requests
// erroneously treated as first-party: pairs that are third-party under
// the latest list but same-site under the version in question. This is
// the harm direction the paper emphasises for Figure 6 ("more requests
// are erroneously treated as first-party when using out-of-date
// lists") — these are exactly the requests whose shared state a tracker
// can exploit.
func (p *Pipeline) MisclassifiedFirstPartySeries() []int64 {
	n := p.H.Len()
	diff := make([]int64, n+1)
	for _, pair := range p.Snap.Pairs {
		pSeqs, pSite := p.steps(int(pair.Page))
		rSeqs, rSite := p.steps(int(pair.Req))
		if pSite[len(pSite)-1] == rSite[len(rSite)-1] {
			// Same-site under the latest list: never "erroneous".
			continue
		}
		i, j := 0, 0
		start := 0
		for start < n {
			for i+1 < len(pSeqs) && int(pSeqs[i+1]) <= start {
				i++
			}
			for j+1 < len(rSeqs) && int(rSeqs[j+1]) <= start {
				j++
			}
			end := n
			if i+1 < len(pSeqs) && int(pSeqs[i+1]) < end {
				end = int(pSeqs[i+1])
			}
			if j+1 < len(rSeqs) && int(rSeqs[j+1]) < end {
				end = int(rSeqs[j+1])
			}
			if pSite[i] == rSite[j] {
				diff[start] += int64(pair.Count)
				diff[end] -= int64(pair.Count)
			}
			start = end
		}
	}
	out := make([]int64, n)
	var run int64
	for seq := 0; seq < n; seq++ {
		run += diff[seq]
		out[seq] = run
	}
	return out
}

// SitesAtVersionFull recomputes the Figure 5 sample for one version from
// scratch by matching every hostname against the materialised list. It
// is the slow reference implementation used to validate the incremental
// pipeline and as the ablation baseline.
func SitesAtVersionFull(l *psl.List, hosts []string) (sites int, meanSize float64) {
	set := make(map[string]struct{}, len(hosts))
	for _, h := range hosts {
		set[l.SiteOrSelf(h)] = struct{}{}
	}
	if len(set) == 0 {
		return 0, 0
	}
	return len(set), float64(len(hosts)) / float64(len(set))
}

// ThirdPartyAtVersionFull recomputes the Figure 6 sample for one
// version from scratch (slow reference implementation).
func ThirdPartyAtVersionFull(l *psl.List, snap *snapshotPairs) int64 {
	var total int64
	for _, pair := range snap.Pairs {
		if l.SiteOrSelf(snap.Hosts[pair.Page]) != l.SiteOrSelf(snap.Hosts[pair.Req]) {
			total += int64(pair.Count)
		}
	}
	return total
}

// snapshotPairs is the minimal view ThirdPartyAtVersionFull needs; the
// httparchive.Snapshot satisfies it structurally via AsPairsView.
type snapshotPairs struct {
	Hosts []string
	Pairs []pairView
}

type pairView struct {
	Page, Req int32
	Count     int32
}

// PairsView adapts the pipeline's snapshot for the full recomputation
// reference.
func (p *Pipeline) PairsView() *snapshotPairs {
	v := &snapshotPairs{Hosts: p.Snap.Hosts, Pairs: make([]pairView, len(p.Snap.Pairs))}
	for i, pr := range p.Snap.Pairs {
		v.Pairs[i] = pairView{Page: pr.Page, Req: pr.Req, Count: pr.Count}
	}
	return v
}
