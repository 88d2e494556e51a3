package dist

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/history"
	"repro/internal/psl"
)

// Chain precomputes, in one pass over a history's event stream, the
// rule-set fingerprint of every version. Materialising each of the
// 1,142 versions with ListAt and fingerprinting it would replay the
// whole event history per version (quadratic); the chain instead keeps
// one canonically sorted rule set live, applies each event's delta with
// binary-search insertions and deletions, and fingerprints the sorted
// set in place via psl.FingerprintOfSorted.
//
// The fingerprints are what make patch chains trustworthy: the origin
// stamps them into every patch header, and a replica refuses any hop
// whose source or target doesn't match.
// The chain is extendable: Origin.Publish appends freshly accepted
// versions via AppendEvent. The live sorted tip set is retained for
// incremental fingerprinting, guarded by a mutex, while the fingerprint
// table itself sits behind an atomic snapshot pointer so concurrent
// readers stay lock-free.
type Chain struct {
	h *history.History

	mu   sync.Mutex // serializes AppendEvent
	live []psl.Rule // tip rule set, psl.CompareRules-sorted; guarded by mu
	fps  atomic.Pointer[[]string]
}

// NewChain builds the fingerprint table for all of h's versions.
func NewChain(h *history.History) *Chain {
	events := h.Events()
	c := &Chain{h: h}
	fps := make([]string, len(events))
	c.live = walk(events, func(seq int, rules []psl.Rule) {
		fps[seq] = psl.FingerprintOfSorted(rules)
	})
	c.fps.Store(&fps)
	return c
}

// Len reports the number of versions covered.
func (c *Chain) Len() int { return len(*c.fps.Load()) }

// Fingerprint returns the rule-set fingerprint of version seq, equal to
// h.ListAt(seq).Fingerprint() without the replay.
func (c *Chain) Fingerprint(seq int) string { return (*c.fps.Load())[seq] }

// AppendEvent extends the fingerprint table with one freshly appended
// history event and returns the new version's fingerprint. The event
// must carry the next sequence number (Origin.Publish appends to the
// history first, then here, so the chain never gets ahead of the event
// stream readers consult through Patch).
func (c *Chain) AppendEvent(ev history.Event) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	fps := *c.fps.Load()
	if ev.Seq != len(fps) {
		panic(fmt.Sprintf("dist: chain append out of order: event seq %d, chain len %d", ev.Seq, len(fps)))
	}
	c.live = applyEvent(c.live, ev)
	fp := psl.FingerprintOfSorted(c.live)
	next := append(fps[:len(fps):len(fps)], fp)
	c.fps.Store(&next)
	return fp
}

// PreviewFingerprint reports the fingerprint the rule set would carry
// after applying the delta at the current tip, without extending the
// chain. Origin.Publish uses it to refuse fingerprint-neutral deltas
// before they enter the event stream. The merge of the tip set and the
// delta streams into the hash; nothing is copied.
func (c *Chain) PreviewFingerprint(added, removed []psl.Rule) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return psl.FingerprintOf(psl.MergeDiff(c.live, psl.Diff{Added: added, Removed: removed}))
}

// tipHas reports whether the tip rule set holds r's canonical key. Like
// psl.List.Contains, identity ignores Section.
func (c *Chain) tipHas(r psl.Rule) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := find(c.live, r)
	return ok
}

// Patch builds the delta taking version from to version to (from < to)
// by folding the events in (from, to] into one net add/remove set. A
// key touched multiple times collapses to its final operation; a rule
// re-added after removal within the window encodes as a remove+add
// pair, and a rule added then removed again encodes as a remove that
// Apply may find absent — a harmless no-op under the dedup semantics.
// The fingerprint pair pins the exact result regardless.
func (c *Chain) Patch(from, to int) *Patch {
	fps := *c.fps.Load()
	if from < 0 || to >= len(fps) || from >= to {
		panic(fmt.Sprintf("dist: patch range [%d, %d] invalid for %d versions", from, to, len(fps)))
	}
	type lastOp struct {
		rule psl.Rule
		add  bool
	}
	state := make(map[string]lastOp)
	events := c.h.Events()
	for seq := from + 1; seq <= to; seq++ {
		// ListAt processes removals before additions within one event.
		for _, r := range events[seq].Removed {
			state[r.String()] = lastOp{rule: r, add: false}
		}
		for _, r := range events[seq].Added {
			state[r.String()] = lastOp{rule: r, add: true}
		}
	}
	var added, removed []psl.Rule
	for _, op := range state {
		if op.add {
			added = append(added, op.rule)
		} else {
			removed = append(removed, op.rule)
		}
	}
	sort.Slice(added, func(i, j int) bool { return psl.CompareRules(added[i], added[j]) < 0 })
	sort.Slice(removed, func(i, j int) bool { return psl.CompareRules(removed[i], removed[j]) < 0 })
	meta := c.h.Meta(to)
	return &Patch{
		FromSeq:   from,
		ToSeq:     to,
		FromFP:    fps[from],
		ToFP:      fps[to],
		ToVersion: meta.Label(),
		ToDate:    meta.Date,
		Removed:   removed,
		Added:     added,
	}
}

// walk replays an event stream once, maintaining the live rule set in
// psl.CompareRules order, and calls fn after each version with the
// sorted set. The slice is reused between calls; fn must not retain it.
// Returns the final live set.
func walk(events []history.Event, fn func(seq int, rules []psl.Rule)) []psl.Rule {
	rules := make([]psl.Rule, 0, 10000)
	for _, ev := range events {
		rules = applyEvent(rules, ev)
		fn(ev.Seq, rules)
	}
	return rules
}

// applyEvent folds one event's delta into a sorted live rule set,
// removals first (matching ListAt's replay order), returning the
// updated slice.
func applyEvent(rules []psl.Rule, ev history.Event) []psl.Rule {
	for _, r := range ev.Removed {
		if i, ok := find(rules, r); ok {
			rules = append(rules[:i], rules[i+1:]...)
		}
	}
	for _, r := range ev.Added {
		i, ok := find(rules, r)
		if ok {
			// Duplicate key: ListAt keeps the first-added rule.
			continue
		}
		rules = append(rules, psl.Rule{})
		copy(rules[i+1:], rules[i:])
		rules[i] = r
	}
	return rules
}

// find locates the rule with r's canonical key in a sorted set,
// returning its index, or the insertion index when absent.
func find(rules []psl.Rule, r psl.Rule) (int, bool) {
	i := sort.Search(len(rules), func(i int) bool { return psl.CompareRules(rules[i], r) >= 0 })
	return i, i < len(rules) && psl.CompareRules(rules[i], r) == 0
}

// ChainStats is the "why deltas" ablation: the cumulative transfer cost
// of following every version by single-hop patches versus re-fetching
// each version as a full snapshot blob.
type ChainStats struct {
	// Versions is the number of history versions measured.
	Versions int `json:"versions"`
	// PatchBytesTotal sums the encoded single-hop patches v0→v1→…→head.
	PatchBytesTotal int64 `json:"patch_bytes_total"`
	// FullBytesTotal sums the encoded full blob of every version after
	// the first (the fair comparison: both columns pay for v0 once).
	FullBytesTotal int64 `json:"full_bytes_total"`
	// BootstrapBytes is the full blob of version 0, the cost both
	// strategies share.
	BootstrapBytes int64 `json:"bootstrap_bytes"`
	// MaxPatchBytes is the largest single-hop patch (the JP spike).
	MaxPatchBytes int `json:"max_patch_bytes"`
	// HeadFullBytes is the full blob of the newest version.
	HeadFullBytes int64 `json:"head_full_bytes"`
}

// Ratio reports full-sync bytes per patch byte; >1 means deltas win.
func (s ChainStats) Ratio() float64 {
	if s.PatchBytesTotal == 0 {
		return 0
	}
	return float64(s.FullBytesTotal) / float64(s.PatchBytesTotal)
}

// ComputeChainStats replays h once, pricing each hop both ways. Full
// blobs are priced by exact formula (see fullBlobSize) rather than
// encoded, so the whole sweep stays a single linear pass.
func ComputeChainStats(h *history.History) ChainStats {
	events := h.Events()
	s := ChainStats{Versions: len(events)}
	var prevFP string
	walk(events, func(seq int, rules []psl.Rule) {
		ev := events[seq]
		rulesEnc := 0 // exact encoded size of the live set
		for _, r := range rules {
			rulesEnc += encodedRuleSize(r)
		}
		fp := psl.FingerprintOfSorted(rules)
		meta := h.Meta(seq)
		full := fullBlobSize(meta, len(rules), rulesEnc)
		if seq == 0 {
			s.BootstrapBytes = int64(full)
		} else {
			p := &Patch{
				FromSeq:   seq - 1,
				ToSeq:     seq,
				FromFP:    prevFP,
				ToFP:      fp,
				ToVersion: meta.Label(),
				ToDate:    meta.Date,
				Removed:   ev.Removed,
				Added:     ev.Added,
			}
			n := len(p.Encode())
			s.PatchBytesTotal += int64(n)
			if n > s.MaxPatchBytes {
				s.MaxPatchBytes = n
			}
			s.FullBytesTotal += int64(full)
		}
		s.HeadFullBytes = int64(full)
		prevFP = fp
	})
	return s
}

// fullBlobSize prices EncodeFull for a version without materialising
// it: frame (magic, codec version, trailer) + header fields + rules.
// Kept in lockstep with EncodeFull by TestFullBlobSizeFormula.
func fullBlobSize(meta history.VersionMeta, nRules, rulesEnc int) int {
	n := 4 + 1 // magic + codec version
	n += uvarintLen(uint64(meta.Seq))
	n += 32 // fingerprint
	date := uint64(0)
	if !meta.Date.IsZero() {
		date = uint64(meta.Date.UnixNano())
	}
	n += uvarintLen(date)
	label := meta.Label()
	n += uvarintLen(uint64(len(label))) + len(label)
	n += uvarintLen(uint64(nRules)) + rulesEnc
	n += 32 // trailer
	return n
}
