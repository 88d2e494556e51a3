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
// every hostname 1,142 times. The build re-keys the spans by literal
// suffix once, so each suffix of a host costs one map probe; it stores
// every host's step function in three flat arrays rather than per-host
// slices, and interns a site string only when the suffix-label count
// changes. It also keeps each host's suffix-label count under the
// latest version, from which Table 2 counts hosts per public suffix
// without re-matching the snapshot. BenchmarkAblationIncremental in the
// repository root quantifies the win; TestIncrementalMatchesFull,
// TestDivergenceMatchesFull and TestTable2CountsMatchPublicSuffix prove
// equivalence with from-scratch matching.
package core

import (
	"sort"
	"strings"

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

// candidate is one rule key that could match a host.
type candidate struct {
	// spans are the version intervals during which the rule exists.
	spans []history.Span
	// labels is the suffix-label count the rule yields when prevailing.
	labels int
	// exception marks exception rules, which beat everything.
	exception bool
}

// NewPipeline computes site assignments for every host in the snapshot.
// Hosts must be canonical (psl.Normalize returns them unchanged), as
// httparchive.Generate and ReadSnapshot guarantee.
func NewPipeline(h *history.History, snap *httparchive.Snapshot) *Pipeline {
	nh := len(snap.Hosts)
	p := &Pipeline{
		H:       h,
		Snap:    snap,
		rules:   ruleSpansBySuffix(h.RuleSpans()),
		off:     make([]int32, 1, nh+1),
		seqs:    make([]int32, 0, nh+nh/2),
		site:    make([]int32, 0, nh+nh/2),
		finalSL: make([]uint8, nh),
	}
	n := h.Len()

	siteIdx := make(map[string]int32, nh)
	var cands []candidate
	var breaks []int
	for hi, host := range snap.Hosts {
		cands = cands[:0]
		totalLabels := domain.CountLabels(host)

		// Gather candidate rules: for every suffix s of the host, a
		// normal rule "s", an exception rule "!s", and — when s is a
		// proper suffix — a wildcard rule "*.s".
		s, labels := host, totalLabels
		for {
			if r, ok := p.rules[s]; ok {
				if r.normal != nil {
					cands = append(cands, candidate{spans: r.normal, labels: labels})
				}
				if r.exception != nil {
					cands = append(cands, candidate{spans: r.exception, labels: labels - 1, exception: true})
				}
				if r.wildcard != nil && labels < totalLabels {
					cands = append(cands, candidate{spans: r.wildcard, labels: labels + 1})
				}
			}
			i := strings.IndexByte(s, '.')
			if i < 0 {
				break
			}
			s, labels = s[i+1:], labels-1
		}

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
		if len(breaks) > 2 {
			sort.Ints(breaks)
		}

		// A step starts wherever the suffix-label count changes; no rule
		// yields more labels than the host has, so each count gives a
		// different site.
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
			site := siteOf(host, totalLabels, sl)
			id, ok := siteIdx[site]
			if !ok {
				id = int32(len(p.siteNames))
				p.siteNames = append(p.siteNames, site)
				siteIdx[site] = id
			}
			p.seqs = append(p.seqs, int32(seq))
			p.site = append(p.site, id)
		}
		p.off = append(p.off, int32(len(p.seqs)))
		p.finalSL[hi] = uint8(prevSL)
	}
	return p
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
