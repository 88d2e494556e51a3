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
	// rules in strictly ascending CompareRules order, one per key: the
	// list's only order, the one Serialize, Fingerprint, the dist codec
	// and the packed matcher read.
	rules []Rule
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

// NewList builds a List from rules in any order, keeping the first rule
// given for each key (Section is not part of a key). Metadata fields
// may be set on the result.
func NewList(rules []Rule) *List {
	return &List{rules: sortRules(rules, false)}
}

// NewSortedList builds a List from rules that are already in strictly
// ascending CompareRules order (so free of duplicate keys), copying
// them without sorting. Rules out of order or repeating a key are
// refused with an error wrapping ErrNotCanonical. The dist codec builds
// lists from full snapshot blobs this way.
func NewSortedList(rules []Rule) (*List, error) {
	if i := unsortedAt(rules); i > 0 {
		return nil, fmt.Errorf("%w: rule %d (%s) does not sort after rule %d (%s)",
			ErrNotCanonical, i, rules[i], i-1, rules[i-1])
	}
	return &List{rules: slices.Clone(rules)}, nil
}

// unsortedAt returns the first index whose rule does not sort strictly
// after the one before it, or 0 when rules strictly ascend.
func unsortedAt(rules []Rule) int {
	for i := 1; i < len(rules); i++ {
		if compareRules(rules[i-1], rules[i]) >= 0 {
			return i
		}
	}
	return 0
}

// ErrNotCanonical is wrapped by NewSortedList when its rules are not in
// strictly ascending CompareRules order.
var ErrNotCanonical = errors.New("psl: rules not in canonical order")

// Len reports the number of rules, the quantity the paper's Figure 2
// tracks over time.
func (l *List) Len() int { return len(l.rules) }

// Rules returns the rules in canonical CompareRules order. The slice is
// shared; do not modify it.
func (l *List) Rules() []Rule { return l.rules }

// Contains reports whether the exact rule (including wildcard/exception
// markers, but not its Section) is present.
func (l *List) Contains(r Rule) bool {
	_, ok := slices.BinarySearchFunc(l.rules, r, compareRules)
	return ok
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
	var line []byte
	for _, s := range sections {
		open := false
		for _, r := range l.rules {
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

// Fingerprint returns the hex SHA-256 of the rule lines in canonical
// order, each in list-file syntax and ending "\n", with no metadata and
// no section markers. Two lists with the same rules fingerprint
// identically regardless of date or version labels, and of which
// section each rule sits in: a pure section move keeps the fingerprint,
// which is why dist.Origin.Publish refuses one. The scanner uses it for
// exact version identification. The rules are immutable, so it is
// computed once per list and memoised.
func (l *List) Fingerprint() string {
	l.fpOnce.Do(func() { l.fp = FingerprintOfSorted(l.rules) })
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
// (sections included), ignoring metadata.
func (l *List) Equal(other *List) bool { return slices.Equal(l.rules, other.rules) }

// Clone returns a copy with the same rules and metadata, sharing no
// state with the receiver.
func (l *List) Clone() *List {
	return &List{rules: slices.Clone(l.rules), Date: l.Date, Version: l.Version}
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
// key wins), and a rule in d.Added is added unless its key survives
// (the first entry for a key wins), so a removed and re-added key
// carries the added rule's Section. These are the semantics of
// history's replay and of NewList's dedup. The result is MergeDiff's
// sequence, collected: one merge, no sort.
func (l *List) WithDiff(d Diff) *List {
	rules := make([]Rule, 0, len(l.rules)+len(d.Added))
	MergeDiff(l.rules, d)(func(r Rule) bool {
		rules = append(rules, r)
		return true
	})
	return &List{rules: rules, Date: l.Date, Version: l.Version}
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
// rules itself when already so, otherwise sortRules' sorted copy.
func sortedDelta(rules []Rule, keepLast bool) []Rule {
	if unsortedAt(rules) > 0 {
		return sortRules(rules, keepLast)
	}
	return rules
}

// sortRules returns a copy of rules in strictly ascending CompareRules
// order, keeping one rule per key: the first given or, with keepLast,
// the last. It sorts precomputed keys (see appendSortKey), one memcmp
// per comparison instead of a label walk, and breaks ties by position.
func sortRules(rules []Rule, keepLast bool) []Rule {
	var buf []byte
	for _, r := range rules {
		buf = appendSortKey(buf, r)
	}
	keys := string(buf)
	type keyed struct {
		key string
		at  int
	}
	ks := make([]keyed, len(rules))
	for i, r := range rules {
		n := len(r.Suffix) + 1
		ks[i], keys = keyed{keys[:n], i}, keys[n:]
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		if keepLast {
			return b.at - a.at
		}
		return a.at - b.at
	})
	out := make([]Rule, 0, len(ks))
	for i, k := range ks {
		if i == 0 || k.key != ks[i-1].key {
			out = append(out, rules[k.at])
		}
	}
	return out
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
// from old to new, each in canonical order, by one merge of the two
// lists' rules.
func DiffLists(old, new *List) Diff {
	var d Diff
	a, b := old.rules, new.rules
	for len(a) > 0 || len(b) > 0 {
		c := 1 // only b left, or b's head sorts first
		switch {
		case len(b) == 0:
			c = -1
		case len(a) > 0:
			c = compareRules(a[0], b[0])
		}
		switch {
		case c < 0:
			d.Removed = append(d.Removed, a[0])
			a = a[1:]
		case c > 0:
			d.Added = append(d.Added, b[0])
			b = b[1:]
		default:
			if a[0].Section != b[0].Section {
				d.Moved = append(d.Moved, b[0])
			}
			a, b = a[1:], b[1:]
		}
	}
	return d
}
