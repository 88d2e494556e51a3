// Package serve implements the production query service layered over the
// offline PSL machinery: an HTTP JSON API answering eTLD / eTLD+1
// questions against an atomically hot-swappable immutable list snapshot,
// with a sharded lookup cache, bounded in-flight admission control and
// graceful shutdown.
//
// The serving layer is required to stay byte-for-byte consistent with
// the library — the differential tests in this package and in
// internal/psl hold it to the linear reference matcher — so a snapshot
// is nothing more than an immutable (*psl.List, Matcher) pair plus
// identity metadata. Swapping a snapshot is a single atomic pointer
// store; the read path takes no lock.
package serve

import (
	"repro/internal/domain"
	"repro/internal/psl"
)

// Snapshot is one immutable serving state: a list version and its
// matcher, built eagerly so the first request after a swap pays no
// lazy-construction latency. Snapshots are never mutated after New.
type Snapshot struct {
	// List is the list version this snapshot answers for.
	List *psl.List
	// Matcher answers lookups for this snapshot: the packed compiled
	// matcher (zero-allocation flat-buffer trie), or the linear
	// reference in differential tests.
	Matcher psl.Matcher
	// Seq is the history sequence number of the version, or -1 when the
	// snapshot was installed from a bare list outside any history.
	Seq int
	// Fingerprint is the verified hex fingerprint of the list's rules
	// (psl.FingerprintOfSorted) when the snapshot was installed through
	// SwapVerified, empty when unknown. It lets the next SwapVerified
	// recognise a byte-identical rule set and reuse this snapshot's
	// matcher instead of recompiling.
	Fingerprint string
	// Gen is the swap generation that installed this snapshot: 1 for
	// the snapshot a Service was created with, +1 per Swap since.
	Gen uint64
}

// NewSnapshot builds a snapshot over a list answering through the
// list's own packed matcher (psl.List.Matcher), so the serving hot path
// is allocation-free and a list that is also queried through the
// library compiles once. seq may be -1 for lists that do not come from
// a history.
func NewSnapshot(l *psl.List, seq int) *Snapshot {
	return NewSnapshotWith(l, seq, l.Matcher())
}

// NewSnapshotWith builds a snapshot answering through an explicit
// matcher: a pre-compiled packed matcher from a blob, or the linear
// reference in tests.
func NewSnapshotWith(l *psl.List, seq int, m psl.Matcher) *Snapshot {
	return &Snapshot{List: l, Matcher: m, Seq: seq}
}

// Answer is the JSON body of a successful lookup. Fields mirror the
// library API: ETLD is List.PublicSuffix, Site is List.Site (empty with
// IsSuffix set when the host is itself a public suffix).
type Answer struct {
	// Query echoes the raw host query parameter.
	Query string `json:"query"`
	// Host is the normalized ASCII (A-label) form actually matched.
	Host string `json:"host"`
	// ETLD is the public suffix of Host under this list version.
	ETLD string `json:"etld"`
	// Site is the registrable domain (eTLD+1), empty when IsSuffix.
	Site string `json:"site,omitempty"`
	// IsSuffix reports that Host is itself a public suffix and so has
	// no registrable domain.
	IsSuffix bool `json:"is_suffix,omitempty"`
	// ICANN reports that the prevailing rule came from the ICANN
	// section (false for private-section and implicit matches).
	ICANN bool `json:"icann"`
	// Rule is the prevailing rule in list-file syntax ("*.ck"), empty
	// for implicit matches.
	Rule string `json:"rule,omitempty"`
	// Section names the prevailing rule's section, "implicit" when no
	// explicit rule matched.
	Section string `json:"section"`
	// Implicit reports that the implicit "*" rule prevailed.
	Implicit bool `json:"implicit"`
	// Version and Seq identify the list version that produced the
	// answer; under concurrent swaps a response is always internally
	// consistent with the version it names.
	Version string `json:"version"`
	Seq     int    `json:"seq"`
	// Cached reports that the answer was served from the lookup cache.
	Cached bool `json:"cached,omitempty"`
	// Error carries the per-row failure for batch responses (an invalid
	// host inside a batch fails only its own row, not the request).
	// Always empty on single-lookup answers, which signal errors at the
	// HTTP status level instead.
	Error string `json:"error,omitempty"`
}

// Resolve answers a lookup against this snapshot, bypassing any cache.
// It normalizes the host with psl.Normalize, as the library does,
// matches once, and derives suffix and site from the single match
// result, so the answer is identical to the library's (the differential
// tests pin this).
func (s *Snapshot) Resolve(host string) (Answer, error) {
	ascii, err := psl.Normalize(host)
	if err != nil {
		return Answer{}, err
	}
	a := Answer{
		Query:   host,
		Host:    ascii,
		Version: s.List.Version,
		Seq:     s.Seq,
	}
	res := s.Matcher.Match(ascii)
	n := res.SuffixLabels
	if n <= 0 {
		// Mirror psl.List.PublicSuffix: a single-label exception rule
		// yields an empty suffix; fall back to the rightmost label.
		n = 1
		res.Implicit = true
	}
	a.ETLD = domain.LastLabels(ascii, n)
	a.Implicit = res.Implicit
	if res.Implicit {
		a.Section = "implicit"
	} else {
		a.Rule = res.Rule.String()
		a.Section = res.Rule.Section.String()
		a.ICANN = res.Rule.Section == psl.SectionICANN
	}
	if total := domain.CountLabels(ascii); total > n {
		a.Site = domain.LastLabels(ascii, n+1)
	} else {
		a.IsSuffix = true
	}
	return a, nil
}
