package psl

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Section markers used by the canonical public_suffix_list.dat file.
const (
	beginICANN   = "// ===BEGIN ICANN DOMAINS==="
	endICANN     = "// ===END ICANN DOMAINS==="
	beginPrivate = "// ===BEGIN PRIVATE DOMAINS==="
	endPrivate   = "// ===END PRIVATE DOMAINS==="
)

// List is one version of the public suffix list: an immutable set of
// rules plus metadata identifying the version. The zero value is an empty
// list on which lookups fall back to the implicit "*" rule.
type List struct {
	rules []Rule
	// index of rule by canonical string, for set operations.
	byKey map[string]int
	// the rules in CompareRules order; see (*List).SortedRules. NewList
	// sorts them on first use; WithDiff and NewSortedList set them at
	// construction, so a list derived by deltas never sorts.
	sortedOnce sync.Once
	sorted     []Rule
	// lazily compiled matcher; see (*List).Matcher.
	matcherOnce sync.Once
	matcher     *PackedMatcher
	// lazily computed rule-set fingerprint; see (*List).Fingerprint.
	fpOnce sync.Once
	fp     string

	// Date is the publication date of this version (commit date in the
	// upstream repository).
	Date time.Time
	// Version is a human-readable identifier, e.g. a commit hash or a
	// sequence number assigned by the history generator.
	Version string
}

// NewList builds a List from rules, dropping exact duplicates while
// preserving first-seen order. Metadata fields may be set on the result.
func NewList(rules []Rule) *List {
	l := &List{
		rules: make([]Rule, 0, len(rules)),
		byKey: make(map[string]int, len(rules)),
	}
	for _, r := range rules {
		k := r.String()
		if _, dup := l.byKey[k]; dup {
			continue
		}
		l.byKey[k] = len(l.rules)
		l.rules = append(l.rules, r)
	}
	return l
}

// NewSortedList builds a List from rules that are already in strictly
// ascending CompareRules order (so free of duplicate keys), adopting
// that order as the canonical one without sorting. Rules out of order
// or repeating a key are refused with an error wrapping
// ErrNotCanonical. The dist codec builds lists from full snapshot blobs
// this way.
func NewSortedList(rules []Rule) (*List, error) {
	for i := 1; i < len(rules); i++ {
		if compareRules(rules[i-1], rules[i]) >= 0 {
			return nil, fmt.Errorf("%w: rule %d (%s) does not sort after rule %d (%s)",
				ErrNotCanonical, i, rules[i], i-1, rules[i-1])
		}
	}
	l := NewList(rules)
	l.sortedOnce.Do(func() { l.sorted = l.rules })
	return l, nil
}

// ErrNotCanonical is wrapped by NewSortedList when its rules are not in
// strictly ascending CompareRules order.
var ErrNotCanonical = errors.New("psl: rules not in canonical order")

// Len reports the number of rules, the quantity the paper's Figure 2
// tracks over time.
func (l *List) Len() int { return len(l.rules) }

// Rules returns the rules in first-seen order. The slice is shared; do
// not modify it.
func (l *List) Rules() []Rule { return l.rules }

// SortedRules returns the rules in canonical CompareRules order, the
// order Serialize, Fingerprint and the dist codec emit. A list from
// NewList sorts a copy once, on first use; lists from NewSortedList and
// WithDiff already hold it. The slice is shared; do not modify it.
func (l *List) SortedRules() []Rule {
	l.sortedOnce.Do(func() {
		l.sorted = slices.Clone(l.rules)
		slices.SortFunc(l.sorted, compareRules)
	})
	return l.sorted
}

// Contains reports whether the exact rule (including wildcard/exception
// markers) is present.
func (l *List) Contains(r Rule) bool {
	_, ok := l.byKey[r.String()]
	return ok
}

// ContainsSuffix reports whether any rule (of any kind) exists for the
// given literal suffix string as written in list syntax, e.g. "co.uk" or
// "*.ck".
func (l *List) ContainsSuffix(s string) bool {
	_, ok := l.byKey[s]
	return ok
}

// ComponentHistogram counts rules by their written component count
// (Figure 2's breakdown). Keys are component counts, values rule counts.
func (l *List) ComponentHistogram() map[int]int {
	h := make(map[int]int)
	for _, r := range l.rules {
		h[r.Components()]++
	}
	return h
}

// MaxRules is the most rule lines Parse accepts: the packed matcher
// addresses rules in 21 bits, so a longer list could not be compiled.
const MaxRules = packedRefMask - 1

// Parse reads a list in the canonical public_suffix_list.dat format:
// one rule per line; whitespace-trimmed; lines beginning with "//" are
// comments; section markers assign rules to the ICANN or PRIVATE
// sections. Invalid rules are reported with their line number, and
// input holding more than MaxRules rules is refused.
func Parse(r io.Reader) (*List, error) {
	return parse(r, MaxRules)
}

// parse is Parse with the rule cap as a parameter.
func parse(r io.Reader, maxRules int) (*List, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var rules []Rule
	section := SectionUnknown
	lineno := 0
	for scanner.Scan() {
		lineno++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "//") {
			switch line {
			case beginICANN:
				section = SectionICANN
			case endICANN, endPrivate:
				section = SectionUnknown
			case beginPrivate:
				section = SectionPrivate
			}
			continue
		}
		// The canonical file terminates rules at the first whitespace;
		// anything after is a comment.
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		rule, err := ParseRule(line, section)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		if len(rules) == maxRules {
			return nil, fmt.Errorf("line %d: list exceeds %d rules", lineno, maxRules)
		}
		rules = append(rules, rule)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return NewList(rules), nil
}

// ParseString is Parse over an in-memory string.
func ParseString(s string) (*List, error) {
	return Parse(strings.NewReader(s))
}

// MustParse parses or panics; for tests and embedded data.
func MustParse(s string) *List {
	l, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return l
}

// WriteTo serializes the list in canonical file format, with rules
// grouped into ICANN and PRIVATE sections in deterministic order. The
// output reparses to an equal list.
func (l *List) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(s string) error {
		m, err := bw.WriteString(s)
		n += int64(m)
		return err
	}
	if err := write("// Public Suffix List\n"); err != nil {
		return n, err
	}
	if l.Version != "" {
		if err := write("// VERSION: " + l.Version + "\n"); err != nil {
			return n, err
		}
	}
	if !l.Date.IsZero() {
		if err := write("// DATE: " + l.Date.UTC().Format(time.RFC3339) + "\n"); err != nil {
			return n, err
		}
	}
	sections := []struct {
		sec        Section
		begin, end string
	}{
		{SectionICANN, beginICANN, endICANN},
		{SectionPrivate, beginPrivate, endPrivate},
		{SectionUnknown, "", ""},
	}
	sorted := l.SortedRules()
	var line []byte
	for _, s := range sections {
		open := false
		for _, r := range sorted {
			if r.Section != s.sec {
				continue
			}
			if !open && s.begin != "" {
				if err := write(s.begin + "\n"); err != nil {
					return n, err
				}
			}
			open = true
			line = append(appendRule(line[:0], r), '\n')
			m, err := bw.Write(line)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
		if open && s.end != "" {
			if err := write(s.end + "\n"); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// Serialize renders the list to a string in canonical file format.
func (l *List) Serialize() string {
	var b strings.Builder
	if _, err := l.WriteTo(&b); err != nil {
		// strings.Builder never errors; keep the invariant visible.
		panic(err)
	}
	return b.String()
}

// Fingerprint returns the SHA-256 of the canonical serialization of the
// rule set only (metadata excluded), hex-encoded. Two lists with the same
// rules fingerprint identically regardless of date or version labels;
// the scanner uses this for exact version identification. The rules
// are immutable, so it is computed once per list and memoised.
func (l *List) Fingerprint() string {
	l.fpOnce.Do(func() { l.fp = FingerprintOfSorted(l.SortedRules()) })
	return l.fp
}

// FingerprintOfSorted computes the same fingerprint as (*List).Fingerprint
// for a rule slice that is already in CompareRules order, without copying
// or re-sorting. Callers that maintain a canonically sorted set (the dist
// version chain) use it to fingerprint every history version in one pass.
// Its allocations do not depend on the number of rules.
func FingerprintOfSorted(rules []Rule) string {
	h := newRuleHash()
	for _, r := range rules {
		h.add(r)
	}
	return h.sum()
}

// FingerprintOf is FingerprintOfSorted over a sequence of rules yielded
// in CompareRules order, such as MergeDiff's, so a derived rule set can
// be fingerprinted without materialising it.
func FingerprintOf(rules func(yield func(Rule) bool)) string {
	h := newRuleHash()
	rules(func(r Rule) bool {
		h.add(r)
		return true
	})
	return h.sum()
}

// ruleHash streams rule lines into SHA-256 through one reused buffer.
type ruleHash struct {
	h   hash.Hash
	buf []byte
}

// ruleHashFlush is the buffered byte count at which add hands the
// buffer to the hash.
const ruleHashFlush = 4096

func newRuleHash() *ruleHash {
	return &ruleHash{h: sha256.New(), buf: make([]byte, 0, ruleHashFlush+512)}
}

// add hashes one rule line: the rule in list-file syntax and a newline.
func (rh *ruleHash) add(r Rule) {
	rh.buf = append(appendRule(rh.buf, r), '\n')
	if len(rh.buf) >= ruleHashFlush {
		rh.h.Write(rh.buf)
		rh.buf = rh.buf[:0]
	}
}

func (rh *ruleHash) sum() string {
	rh.h.Write(rh.buf)
	var sum [sha256.Size]byte
	return hex.EncodeToString(rh.h.Sum(sum[:0]))
}

// Equal reports whether two lists contain exactly the same rules
// (sections included), ignoring order and metadata.
func (l *List) Equal(other *List) bool {
	if l.Len() != other.Len() {
		return false
	}
	for k := range l.byKey {
		if _, ok := other.byKey[k]; !ok {
			return false
		}
	}
	return true
}

// Clone returns a deep copy sharing no state, with the same metadata.
func (l *List) Clone() *List {
	c := NewList(l.rules)
	c.Date = l.Date
	c.Version = l.Version
	return c
}

// WithRules returns a new list with the given rules added (duplicates
// ignored), preserving metadata. The receiver is unchanged.
func (l *List) WithRules(add ...Rule) *List {
	return l.WithDiff(Diff{Added: add})
}

// WithoutRules returns a new list with the given rules removed,
// preserving metadata. The receiver is unchanged.
func (l *List) WithoutRules(remove ...Rule) *List {
	return l.WithDiff(Diff{Removed: remove})
}

// WithDiff returns the list d takes the receiver to, preserving
// metadata; the receiver is unchanged. Removals apply first: a rule in
// d.Removed is dropped (an absent one is ignored), a surviving rule
// named in d.Moved takes that entry's Section (the last entry for a
// key wins), and a rule in d.Added is appended unless its key survives
// (the first entry for a key wins). A removed and re-added key ends up
// at the end, carrying the added rule's Section. These are the
// semantics of history.ListAt's replay and of NewList's dedup.
//
// The result's canonical order comes from merging the receiver's with
// the delta (MergeDiff), never from a sort, so a list derived by any
// chain of deltas from a bootstrapped one sorts nothing.
func (l *List) WithDiff(d Diff) *List {
	rules := make([]Rule, 0, len(l.rules)+len(d.Added))
	rules = append(rules, l.rules...)
	for _, r := range d.Moved {
		if i, ok := l.byKey[r.String()]; ok {
			rules[i].Section = r.Section
		}
	}
	if len(d.Removed) > 0 {
		drop := make(map[int]bool, len(d.Removed))
		for _, r := range d.Removed {
			if i, ok := l.byKey[r.String()]; ok {
				drop[i] = true
			}
		}
		kept := rules[:0]
		for i, r := range rules {
			if !drop[i] {
				kept = append(kept, r)
			}
		}
		rules = kept
	}
	c := NewList(append(rules, d.Added...)) // NewList drops keys already present
	sorted := make([]Rule, 0, len(c.rules))
	MergeDiff(l.SortedRules(), d)(func(r Rule) bool {
		sorted = append(sorted, r)
		return true
	})
	c.sortedOnce.Do(func() { c.sorted = sorted })
	c.Date = l.Date
	c.Version = l.Version
	return c
}

// MergeDiff returns the sequence of rules WithDiff's result holds,
// in CompareRules order, for base in that order: base is walked once
// and the delta spliced in, so the cost is linear in base plus a sort
// of the delta. The delta's order is not trusted: each of its slices is
// used as-is when strictly ascending and otherwise sorted in a copy.
// The sequence may be consumed any number of times.
func MergeDiff(base []Rule, d Diff) func(yield func(Rule) bool) {
	removed := sortedDelta(d.Removed, false)
	added := sortedDelta(d.Added, false)
	moved := sortedDelta(d.Moved, true)
	return func(yield func(Rule) bool) {
		i, ri, ai, mi := 0, 0, 0, 0
		emit := func(to int) bool {
			for ; i < to; i++ {
				if !yield(base[i]) {
					return false
				}
			}
			return true
		}
		for ri < len(removed) || ai < len(added) || mi < len(moved) {
			// The next key the delta touches, and which slices hold it.
			var key Rule
			ok := false
			for _, rest := range [...][]Rule{removed[ri:], added[ai:], moved[mi:]} {
				if len(rest) > 0 && (!ok || compareRules(rest[0], key) < 0) {
					key, ok = rest[0], true
				}
			}
			take := func(rules []Rule, at *int) (Rule, bool) {
				if *at < len(rules) && compareRules(rules[*at], key) == 0 {
					*at++
					return rules[*at-1], true
				}
				return Rule{}, false
			}
			_, isRemoved := take(removed, &ri)
			a, isAdded := take(added, &ai)
			m, isMoved := take(moved, &mi)

			at, found := slices.BinarySearchFunc(base[i:], key, compareRules)
			if !emit(i + at) {
				return
			}
			out, keep := a, isAdded // an absent or removed key: the addition, if any
			if found {
				if !isRemoved {
					out, keep = base[i], true
					if isMoved {
						out.Section = m.Section
					}
				}
				i++
			}
			if keep && !yield(out) {
				return
			}
		}
		emit(len(base))
	}
}

// sortedDelta returns rules in strictly ascending CompareRules order:
// rules itself when already so, otherwise a sorted copy keeping one
// rule per key, the first given or, with keepLast, the last.
func sortedDelta(rules []Rule, keepLast bool) []Rule {
	ascending := true
	for i := 1; i < len(rules) && ascending; i++ {
		ascending = compareRules(rules[i-1], rules[i]) < 0
	}
	if ascending {
		return rules
	}
	s := slices.Clone(rules)
	if keepLast {
		slices.Reverse(s)
	}
	slices.SortStableFunc(s, compareRules)
	return slices.CompactFunc(s, func(a, b Rule) bool { return compareRules(a, b) == 0 })
}

// Diff describes the rule-set delta from an old version to a new one.
type Diff struct {
	Added   []Rule
	Removed []Rule
	// Moved holds rules present in both versions whose Section changed
	// (e.g. a private-section suffix promoted to ICANN). Each entry
	// carries the new Section. Rule identity ignores Section, so these
	// are invisible to Added/Removed but still change lookup answers
	// (the ICANN flag comes from the prevailing rule's section).
	Moved []Rule
}

// DiffLists computes the rules added, removed, and section-moved going
// from old to new, in canonical order.
func DiffLists(old, new *List) Diff {
	var d Diff
	for _, r := range new.rules {
		i, ok := old.byKey[r.String()]
		switch {
		case !ok:
			d.Added = append(d.Added, r)
		case old.rules[i].Section != r.Section:
			d.Moved = append(d.Moved, r)
		}
	}
	for _, r := range old.rules {
		if !new.Contains(r) {
			d.Removed = append(d.Removed, r)
		}
	}
	sort.Slice(d.Added, func(i, j int) bool { return compareRules(d.Added[i], d.Added[j]) < 0 })
	sort.Slice(d.Removed, func(i, j int) bool { return compareRules(d.Removed[i], d.Removed[j]) < 0 })
	sort.Slice(d.Moved, func(i, j int) bool { return compareRules(d.Moved[i], d.Moved[j]) < 0 })
	return d
}

// Jaccard computes the Jaccard similarity |A∩B| / |A∪B| of two rule
// sets, in [0, 1]. The scanner uses it to find the nearest known version
// of an unrecognised embedded list.
func Jaccard(a, b *List) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	small, large := a, b
	if small.Len() > large.Len() {
		small, large = large, small
	}
	inter := 0
	for k := range small.byKey {
		if _, ok := large.byKey[k]; ok {
			inter++
		}
	}
	union := a.Len() + b.Len() - inter
	return float64(inter) / float64(union)
}
