// Package history simulates the version history of the public suffix
// list: 1,142 versions from 22 March 2007 to 20 October 2022 (Section 3
// of the paper). The generated corpus is calibrated to Figure 2 — it
// starts near 2,447 rules, jumps by ~1,623 Japanese city-level rules in
// mid-2012, passes ~8,062 rules around 2017 and ends at ~9,368 — and
// carries a curated set of real suffixes (Table 2 eTLDs, well-known
// hosting platforms) planted at dates calibrated to the paper's
// repository data.
//
// The real history is a git repository; offline we reproduce the
// (date, rule set) sequence, which is all the paper's pipeline consumes.
package history

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/psl"
)

// Config parameterises Generate. The zero value is replaced by defaults
// matching the paper.
type Config struct {
	// Seed drives all randomness; equal seeds give identical histories.
	Seed int64
	// Start and End bound the version dates. Defaults: 2007-03-22 and
	// 2022-10-20 (the paper's first and last list versions).
	Start, End time.Time
	// Versions is the number of list versions. Default 1142.
	Versions int
	// StartRules is the size of the first version. Default 2447.
	StartRules int
}

// DefaultSeed is used when Config.Seed is zero-valued everywhere else in
// the repository, keeping all experiments reproducible.
const DefaultSeed = 0x5157

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = time.Date(2007, 3, 22, 0, 0, 0, 0, time.UTC)
	}
	if c.End.IsZero() {
		c.End = time.Date(2022, 10, 20, 0, 0, 0, 0, time.UTC)
	}
	if c.Versions == 0 {
		c.Versions = 1142
	}
	if c.StartRules == 0 {
		c.StartRules = 2447
	}
	return c
}

// VersionMeta identifies one list version without materialising it.
type VersionMeta struct {
	// Seq is the version's index, 0-based.
	Seq int
	// Date is the publication (commit) date.
	Date time.Time
	// Rules is the total rule count at this version.
	Rules int
	// Commit is a pseudo commit hash for display.
	Commit string
}

// Label renders the canonical human-readable version identifier, the
// same string (*History).ListAt stamps into List.Version. The dist
// subsystem serializes it into snapshot blobs so a replica-materialised
// list is byte-identical to a locally materialised one.
func (m VersionMeta) Label() string {
	return fmt.Sprintf("v%04d-%s", m.Seq, m.Commit)
}

// Event is the rule delta that produced one version. The first event
// (Seq 0) adds the initial rule set.
type Event struct {
	Seq     int
	Date    time.Time
	Added   []psl.Rule
	Removed []psl.Rule
}

// Span is a half-open interval of version sequence numbers [From, To)
// during which a rule was present. To == Len() means "still present".
type Span struct {
	From, To int
}

// History is a generated version corpus. Generated versions are
// immutable; the list-maintenance control plane (internal/submit) may
// extend a history in place with Append, so the event and metadata
// streams live behind an atomic snapshot pointer: readers are lock-free
// and always see a consistent prefix, while appends serialize on a
// mutex and publish a new snapshot.
type History struct {
	cfg Config

	mu    sync.Mutex // serializes Append
	state atomic.Pointer[historyState]
}

// historyState is one immutable snapshot of the event and metadata
// streams. Appends replace the whole snapshot (full-slice-expression
// copies), so a reader holding an old snapshot never observes a write.
type historyState struct {
	events []Event
	metas  []VersionMeta
}

// newHistory wraps finished event/meta streams in a History.
func newHistory(cfg Config, events []Event, metas []VersionMeta) *History {
	h := &History{cfg: cfg}
	h.state.Store(&historyState{events: events, metas: metas})
	return h
}

// metaFor derives the version metadata (including the pseudo commit
// hash) for one event, given the post-event total rule count.
func metaFor(ev Event, rules int) VersionMeta {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%d", ev.Seq, ev.Date.Format(time.RFC3339), rules)))
	return VersionMeta{
		Seq:    ev.Seq,
		Date:   ev.Date,
		Rules:  rules,
		Commit: hex.EncodeToString(sum[:4]),
	}
}

// growthAnchor pins the total rule count at a date; between anchors the
// target is linearly interpolated.
type growthAnchor struct {
	date  time.Time
	rules int
}

// spikeDate is the mid-2012 JP city-level registration spike.
var spikeDate = time.Date(2012, 6, 15, 0, 0, 0, 0, time.UTC)

// spikeSize is the approximate number of rules the spike adds (the paper
// reports ~1,623).
const spikeSize = 1623

func anchors(cfg Config) []growthAnchor {
	return []growthAnchor{
		{cfg.Start, cfg.StartRules},
		{time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC), 3600},
		{time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC), 4400},
		// The spike is a step, not a ramp: no version date falls inside
		// the one-hour window, so a single version takes the full jump.
		{spikeDate.Add(-time.Hour), 4650},
		{spikeDate, 4650 + spikeSize},
		{time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), 6600},
		{time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC), 8062},
		{time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC), 8700},
		{time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC), 9080},
		{cfg.End, 9368},
	}
}

// targetAt interpolates the anchor curve at a date.
func targetAt(as []growthAnchor, d time.Time) int {
	if !d.After(as[0].date) {
		return as[0].rules
	}
	for i := 1; i < len(as); i++ {
		if d.After(as[i].date) {
			continue
		}
		span := as[i].date.Sub(as[i-1].date)
		if span <= 0 {
			return as[i].rules
		}
		frac := float64(d.Sub(as[i-1].date)) / float64(span)
		return as[i-1].rules + int(frac*float64(as[i].rules-as[i-1].rules))
	}
	return as[len(as)-1].rules
}

// Generate builds a deterministic history from the configuration.
func Generate(cfg Config) *History {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x70534c)) // "pSL"
	as := anchors(cfg)
	dates := versionDates(cfg, rng)

	// Schedule curated rules onto the version whose date is nearest to
	// each curated addition date. AgeDays 0 joins the initial set.
	curatedInitial, curatedAt := scheduleCurated(dates)

	// Schedule the ccTLD restructures: each wildcard-era country code
	// has its "*.cc" rule replaced by explicit rules at a deterministic
	// date between 2008 and mid-2013.
	restructAdd := make(map[int][]psl.Rule)
	restructRemove := make(map[int][]psl.Rule)
	protected := make(map[string]bool)
	restructStart := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)
	restructSpan := time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC).Sub(restructStart)
	for _, cc := range WildcardCCs() {
		when := restructStart.Add(time.Duration(rng.Int63n(int64(restructSpan))))
		seq := nearestDate(dates, when)
		if seq == 0 {
			seq = 1
		}
		wildcardRule := mustRule("*."+cc, psl.SectionICANN)
		restructRemove[seq] = append(restructRemove[seq], wildcardRule)
		restructAdd[seq] = append(restructAdd[seq], restructureRules(cc)...)
		protected[wildcardRule.String()] = true
	}

	f := newFactory(rng)
	// Pre-reserve curated and restructure names so the factory never
	// collides with them.
	for _, c := range curatedAll() {
		r := ruleFromCurated(c)
		f.reserve(r.Suffix)
		protected[r.String()] = true
	}
	for _, cc := range WildcardCCs() {
		for _, r := range restructureRules(cc) {
			f.reserve(r.Suffix)
			protected[r.String()] = true
		}
	}

	var events []Event
	var metas []VersionMeta
	appendEvent := func(ev Event, rules int) {
		events = append(events, ev)
		metas = append(metas, metaFor(ev, rules))
	}
	// Version 0: the initial rule set.
	initial := f.initialRules(cfg.StartRules - len(curatedInitial))
	initial = append(initial, curatedInitial...)
	current := len(initial)
	appendEvent(Event{Seq: 0, Date: dates[0], Added: initial}, current)

	// Locate the spike version: first version dated >= spikeDate.
	spikeSeq := -1
	for i, d := range dates {
		if !d.Before(spikeDate) {
			spikeSeq = i
			break
		}
	}

	// Synthetic removable pool: rule keys eligible for churn removal.
	removable := make([]psl.Rule, 0, 1024)
	for _, r := range initial {
		removable = append(removable, r)
	}
	nCurated := len(curatedInitial)
	_ = nCurated

	for seq := 1; seq < cfg.Versions; seq++ {
		date := dates[seq]
		ev := Event{Seq: seq, Date: date}
		// Curated rules and ccTLD restructures scheduled for this
		// version.
		ev.Added = append(ev.Added, curatedAt[seq]...)
		ev.Added = append(ev.Added, restructAdd[seq]...)
		ev.Removed = append(ev.Removed, restructRemove[seq]...)

		// Occasional churn: remove a few synthetic rules (never a
		// curated or restructure-managed rule).
		if rng.Intn(50) == 0 && len(removable) > 10 {
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				j := rng.Intn(len(removable))
				if protected[removable[j].String()] {
					continue
				}
				ev.Removed = append(ev.Removed, removable[j])
				removable[j] = removable[len(removable)-1]
				removable = removable[:len(removable)-1]
			}
		}

		target := targetAt(as, date)
		delta := target - (current + len(ev.Added) - len(ev.Removed))
		if seq == spikeSeq {
			// The spike is entirely 3-component JP city rules.
			jp := f.jpSpikeRules(delta)
			ev.Added = append(ev.Added, jp...)
			removable = append(removable, jp...)
		} else {
			for i := 0; i < delta; i++ {
				r := f.syntheticRule(date)
				ev.Added = append(ev.Added, r)
				removable = append(removable, r)
			}
		}
		current += len(ev.Added) - len(ev.Removed)
		appendEvent(ev, current)
	}
	return newHistory(cfg, events, metas)
}

// Append extends the history with one new version carrying the given
// rule delta and returns its metadata. The caller is responsible for
// the delta's coherence against the current tip (added rules absent,
// removed rules present) — dist.Origin.Publish enforces this. Dates
// never move backwards: a date at or before the current tip is bumped
// one second past it, keeping the event stream strictly increasing.
// Readers holding the previous snapshot are unaffected.
func (h *History) Append(date time.Time, added, removed []psl.Rule) VersionMeta {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state.Load()
	last := st.metas[len(st.metas)-1]
	if !date.After(last.Date) {
		date = last.Date.Add(time.Second)
	}
	ev := Event{
		Seq:     len(st.events),
		Date:    date,
		Added:   append([]psl.Rule(nil), added...),
		Removed: append([]psl.Rule(nil), removed...),
	}
	meta := metaFor(ev, last.Rules+len(added)-len(removed))
	h.state.Store(&historyState{
		events: append(st.events[:len(st.events):len(st.events)], ev),
		metas:  append(st.metas[:len(st.metas):len(st.metas)], meta),
	})
	return meta
}

// versionDates spaces cfg.Versions dates evenly over the span with a
// deterministic jitter, keeping them strictly increasing.
func versionDates(cfg Config, rng *rand.Rand) []time.Time {
	n := cfg.Versions
	dates := make([]time.Time, n)
	span := cfg.End.Sub(cfg.Start)
	for i := 0; i < n; i++ {
		var d time.Time
		switch i {
		case 0:
			d = cfg.Start
		case n - 1:
			d = cfg.End
		default:
			base := cfg.Start.Add(time.Duration(float64(span) * float64(i) / float64(n-1)))
			jitter := time.Duration(rng.Intn(48)-24) * time.Hour
			d = base.Add(jitter)
		}
		if i > 0 && !d.After(dates[i-1]) {
			d = dates[i-1].Add(time.Hour)
		}
		dates[i] = d
	}
	return dates
}

// ruleFromCurated converts a curated entry to a psl.Rule.
func ruleFromCurated(c CuratedSuffix) psl.Rule {
	section := psl.SectionICANN
	if c.Private {
		section = psl.SectionPrivate
	}
	r, err := psl.ParseRule(c.Suffix, section)
	if err != nil {
		panic(fmt.Sprintf("history: bad curated suffix %q: %v", c.Suffix, err))
	}
	return r
}

// scheduleCurated splits curated suffixes into the initial set and a
// per-version schedule keyed by sequence number.
func scheduleCurated(dates []time.Time) (initial []psl.Rule, at map[int][]psl.Rule) {
	at = make(map[int][]psl.Rule)
	for _, c := range curatedAll() {
		r := ruleFromCurated(c)
		if c.AgeDays == 0 {
			initial = append(initial, r)
			continue
		}
		want := MeasurementDate.AddDate(0, 0, -c.AgeDays)
		seq := nearestDate(dates, want)
		if seq == 0 {
			initial = append(initial, r)
			continue
		}
		at[seq] = append(at[seq], r)
	}
	return initial, at
}

// nearestDate returns the index of the date closest to want.
func nearestDate(dates []time.Time, want time.Time) int {
	i := sort.Search(len(dates), func(i int) bool { return !dates[i].Before(want) })
	if i == 0 {
		return 0
	}
	if i == len(dates) {
		return len(dates) - 1
	}
	if dates[i].Sub(want) < want.Sub(dates[i-1]) {
		return i
	}
	return i - 1
}

// Len reports the number of versions.
func (h *History) Len() int { return len(h.state.Load().events) }

// Meta returns the metadata of version i.
func (h *History) Meta(i int) VersionMeta { return h.state.Load().metas[i] }

// Metas returns all version metadata in order. Shared snapshot slice;
// do not modify.
func (h *History) Metas() []VersionMeta { return h.state.Load().metas }

// Events returns the per-version rule deltas. Shared snapshot slice; do
// not modify.
func (h *History) Events() []Event { return h.state.Load().events }

// ListAt materialises version i by replaying events. Cost is linear in
// the total number of rule changes up to i, plus one sort.
func (h *History) ListAt(i int) *psl.List {
	l := psl.NewList(h.RulesAt(i))
	meta := h.Meta(i)
	l.Date = meta.Date
	l.Version = meta.Label()
	return l
}

// RulesAt returns version i's rules in the order they were introduced,
// by replaying events: each version's removals before its additions,
// and a key already live keeping its first rule. A list holds only the
// canonical order; this replay order is for callers whose output
// depends on when each rule arrived. The slice is freshly allocated.
func (h *History) RulesAt(i int) []psl.Rule {
	st := h.state.Load()
	if i < 0 || i >= len(st.events) {
		panic(fmt.Sprintf("history: version %d out of range [0,%d)", i, len(st.events)))
	}
	// Replay events into an ordered rule set: a map tracks liveness,
	// tombstones preserve introduction order without O(n) deletions.
	index := make(map[string]int, 10000)
	rules := make([]psl.Rule, 0, 10000)
	dead := make([]bool, 0, 10000)
	for seq := 0; seq <= i; seq++ {
		ev := st.events[seq]
		for _, r := range ev.Removed {
			if j, ok := index[r.String()]; ok {
				dead[j] = true
				delete(index, r.String())
			}
		}
		for _, r := range ev.Added {
			if _, ok := index[r.String()]; ok {
				continue
			}
			index[r.String()] = len(rules)
			rules = append(rules, r)
			dead = append(dead, false)
		}
	}
	live := rules[:0]
	for j, r := range rules {
		if !dead[j] {
			live = append(live, r)
		}
	}
	return live
}

// Latest materialises the newest version.
func (h *History) Latest() *psl.List { return h.ListAt(h.Len() - 1) }

// IndexAtDate returns the sequence of the version in effect at the
// given date (the last version dated <= d), or -1 if d precedes the
// first version.
func (h *History) IndexAtDate(d time.Time) int {
	metas := h.state.Load().metas
	i := sort.Search(len(metas), func(i int) bool { return metas[i].Date.After(d) })
	return i - 1
}

// IndexForAge returns the version a project whose embedded list is
// ageDays old (relative to MeasurementDate) would carry. Ages that
// predate the history clamp to the first version.
func (h *History) IndexForAge(ageDays int) int {
	d := MeasurementDate.AddDate(0, 0, -ageDays)
	i := h.IndexAtDate(d)
	if i < 0 {
		return 0
	}
	return i
}

// AgeOfVersion reports how old version i is, in whole days, relative to
// MeasurementDate.
func (h *History) AgeOfVersion(i int) int {
	return int(MeasurementDate.Sub(h.state.Load().metas[i].Date).Hours() / 24)
}

// GrowthPoint is one sample of the Figure 2 series.
type GrowthPoint struct {
	Seq   int
	Date  time.Time
	Total int
	// ByComponents counts rules by written component count; index 0
	// holds 1-component rules, index 3 holds 4-or-more.
	ByComponents [4]int
}

// GrowthSeries computes the Figure 2 series (total rules and component
// mix per version) incrementally from the event stream.
func (h *History) GrowthSeries() []GrowthPoint {
	events := h.state.Load().events
	out := make([]GrowthPoint, 0, len(events))
	var comps [4]int
	total := 0
	bucket := func(r psl.Rule) int {
		c := r.Components()
		if c > 4 {
			c = 4
		}
		return c - 1
	}
	for _, ev := range events {
		for _, r := range ev.Removed {
			comps[bucket(r)]--
			total--
		}
		for _, r := range ev.Added {
			comps[bucket(r)]++
			total++
		}
		out = append(out, GrowthPoint{Seq: ev.Seq, Date: ev.Date, Total: total, ByComponents: comps})
	}
	return out
}

// RuleSpans returns, for every rule key (canonical rule string), the
// half-open version intervals during which it was present. The harm
// pipeline uses this to find each hostname's site changepoints without
// materialising every version.
func (h *History) RuleSpans() map[string][]Span {
	events := h.state.Load().events
	added := 0
	for _, ev := range events {
		added += len(ev.Added)
	}
	// Every key's first span is carved from one array, capped at its own
	// element, so a rule added again later appends to a copy.
	arena := make([]Span, 0, added)
	spans := make(map[string][]Span, 10000)
	for _, ev := range events {
		for _, r := range ev.Added {
			k := r.String()
			sp := Span{From: ev.Seq, To: len(events)}
			if ss, ok := spans[k]; ok {
				spans[k] = append(ss, sp)
				continue
			}
			arena = append(arena, sp)
			i := len(arena)
			spans[k] = arena[i-1 : i : i]
		}
		for _, r := range ev.Removed {
			k := r.String()
			ss := spans[k]
			if len(ss) == 0 {
				continue
			}
			ss[len(ss)-1].To = ev.Seq
		}
	}
	return spans
}
