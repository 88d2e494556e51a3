package psl

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
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

// Len reports the number of rules, the quantity the paper's Figure 2
// tracks over time.
func (l *List) Len() int { return len(l.rules) }

// Rules returns the rules in first-seen order. The slice is shared; do
// not modify it.
func (l *List) Rules() []Rule { return l.rules }

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
	for _, s := range sections {
		var rules []Rule
		for _, r := range l.rules {
			if r.Section == s.sec {
				rules = append(rules, r)
			}
		}
		if len(rules) == 0 {
			continue
		}
		sort.Slice(rules, func(i, j int) bool { return compareRules(rules[i], rules[j]) < 0 })
		if s.begin != "" {
			if err := write(s.begin + "\n"); err != nil {
				return n, err
			}
		}
		for _, r := range rules {
			if err := write(r.String() + "\n"); err != nil {
				return n, err
			}
		}
		if s.end != "" {
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
	l.fpOnce.Do(func() {
		rules := make([]Rule, len(l.rules))
		copy(rules, l.rules)
		sort.Slice(rules, func(i, j int) bool { return compareRules(rules[i], rules[j]) < 0 })
		l.fp = FingerprintOfSorted(rules)
	})
	return l.fp
}

// FingerprintOfSorted computes the same fingerprint as (*List).Fingerprint
// for a rule slice that is already in CompareRules order, without copying
// or re-sorting. Callers that maintain a canonically sorted set (the dist
// version chain) use it to fingerprint every history version in one pass.
func FingerprintOfSorted(rules []Rule) string {
	h := sha256.New()
	for _, r := range rules {
		io.WriteString(h, r.String())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
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
	rules := make([]Rule, 0, len(l.rules)+len(add))
	rules = append(rules, l.rules...)
	rules = append(rules, add...)
	c := NewList(rules)
	c.Date = l.Date
	c.Version = l.Version
	return c
}

// WithoutRules returns a new list with the given rules removed,
// preserving metadata. The receiver is unchanged.
func (l *List) WithoutRules(remove ...Rule) *List {
	drop := make(map[string]bool, len(remove))
	for _, r := range remove {
		drop[r.String()] = true
	}
	rules := make([]Rule, 0, len(l.rules))
	for _, r := range l.rules {
		if !drop[r.String()] {
			rules = append(rules, r)
		}
	}
	c := NewList(rules)
	c.Date = l.Date
	c.Version = l.Version
	return c
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
