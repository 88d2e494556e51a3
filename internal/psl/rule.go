// Package psl implements the Public Suffix List: parsing the canonical
// public_suffix_list.dat format, the matching algorithm published at
// publicsuffix.org/list/, derivation of public suffixes (eTLDs) and
// registrable domains (sites, eTLD+1s), list diffing, and version
// fingerprinting.
//
// Three interchangeable matcher implementations are provided (map, label
// trie, and a linear-scan baseline); they are proven equivalent by
// property tests and compared by the ablation benchmarks.
package psl

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/domain"
	"repro/internal/idna"
)

// Section identifies which part of the list a rule comes from. The
// canonical file is divided by ===BEGIN ICANN DOMAINS=== and
// ===BEGIN PRIVATE DOMAINS=== markers; the distinction matters because,
// e.g., certificate issuance policy treats the two differently, and the
// paper's Table 2 concerns mostly PRIVATE-section suffixes.
type Section uint8

const (
	// SectionUnknown marks rules found outside any section marker.
	SectionUnknown Section = iota
	// SectionICANN marks rules delegated in the public DNS root.
	SectionICANN
	// SectionPrivate marks rules submitted by private domain owners
	// (e.g. github.io, myshopify.com).
	SectionPrivate
)

// String returns the conventional name of the section.
func (s Section) String() string {
	switch s {
	case SectionICANN:
		return "icann"
	case SectionPrivate:
		return "private"
	default:
		return "unknown"
	}
}

// Rule is a single public suffix rule. Rules are stored in canonical
// ASCII (A-label) form, lowercased, without the leading "*." or "!"
// markers, which are carried in the Wildcard and Exception flags.
type Rule struct {
	// Suffix is the rule's domain labels in ASCII form. For the
	// wildcard rule "*.ck" the Suffix is "ck"; for the exception rule
	// "!www.ck" it is "www.ck".
	Suffix string
	// Wildcard reports whether the rule began with "*.": it matches any
	// single additional label to the left of Suffix.
	Wildcard bool
	// Exception reports whether the rule began with "!": it cancels a
	// wildcard rule for the specific name.
	Exception bool
	// Section records which list section the rule was read from.
	Section Section
}

// ErrBadRule is wrapped by ParseRule errors.
var ErrBadRule = errors.New("psl: invalid rule")

// ParseRule parses one rule line (already stripped of comments and
// whitespace) into canonical form. It accepts U-label rules and converts
// them to A-labels, mirroring how the canonical list is consumed.
func ParseRule(line string, section Section) (Rule, error) {
	r := Rule{Section: section}
	s := line
	if strings.HasPrefix(s, "!") {
		r.Exception = true
		s = s[1:]
	}
	if strings.HasPrefix(s, "*.") {
		if r.Exception {
			return Rule{}, fmt.Errorf("%w: %q combines ! and *.", ErrBadRule, line)
		}
		r.Wildcard = true
		s = s[2:]
	}
	if s == "" || s == "*" {
		return Rule{}, fmt.Errorf("%w: %q has no suffix labels", ErrBadRule, line)
	}
	// Interior wildcards ("a.*.b") are not used by the canonical list
	// and are rejected.
	if strings.Contains(s, "*") {
		return Rule{}, fmt.Errorf("%w: %q has interior wildcard", ErrBadRule, line)
	}
	ascii, err := idna.ToASCII(strings.ToLower(s))
	if err != nil {
		return Rule{}, fmt.Errorf("%w: %q: %v", ErrBadRule, line, err)
	}
	ascii = domain.Normalize(ascii)
	if err := domain.Check(ascii); err != nil {
		return Rule{}, fmt.Errorf("%w: %q: %v", ErrBadRule, line, err)
	}
	r.Suffix = ascii
	return r, nil
}

// String renders the rule in list-file syntax ("*.ck", "!www.ck", "com").
func (r Rule) String() string {
	switch {
	case r.Exception:
		return "!" + r.Suffix
	case r.Wildcard:
		return "*." + r.Suffix
	default:
		return r.Suffix
	}
}

// appendRule appends the rule in list-file syntax, as String renders
// it, without allocating a string.
func appendRule(b []byte, r Rule) []byte {
	switch {
	case r.Exception:
		b = append(b, '!')
	case r.Wildcard:
		b = append(b, "*."...)
	}
	return append(b, r.Suffix...)
}

// Unicode renders the rule with IDN labels in their U-label (Unicode)
// form, the way publicsuffix.org displays rules like 政府.hk. ASCII
// rules render unchanged.
func (r Rule) Unicode() string {
	u := idna.ToUnicode(r.Suffix)
	switch {
	case r.Exception:
		return "!" + u
	case r.Wildcard:
		return "*." + u
	default:
		return u
	}
}

// Labels reports the number of labels the rule's matched suffix spans:
// a wildcard rule spans one more label than its literal suffix, and an
// exception rule spans one fewer (the exception cancels the wildcard,
// leaving the parent as the suffix).
func (r Rule) Labels() int {
	n := domain.CountLabels(r.Suffix)
	if r.Wildcard {
		n++
	}
	if r.Exception {
		n--
	}
	return n
}

// Components reports the number of dot-separated elements in the rule as
// written, the quantity plotted in the paper's Figure 2 ("number of
// suffix components"). "*.ck" has two components, "com" one.
func (r Rule) Components() int {
	n := domain.CountLabels(r.Suffix)
	if r.Wildcard {
		n++
	}
	return n
}

// Match reports whether the rule matches the given normalized ASCII
// domain name per the publicsuffix.org algorithm: the rule's labels must
// equal the rightmost labels of the name, with a wildcard matching
// exactly one extra label.
func (r Rule) Match(name string) bool {
	if !domain.HasSuffix(name, r.Suffix) {
		return false
	}
	if !r.Wildcard {
		return true
	}
	// Wildcard: need at least one label left of the literal suffix.
	return len(name) > len(r.Suffix)
}

// CompareRules orders rules canonically: by reversed suffix
// (hierarchical order), with plain rules before wildcards before
// exceptions at the same suffix. A result of 0 means the two rules have
// the same canonical key (Section is deliberately not compared, matching
// List's identity semantics). Exported for consumers that maintain
// canonically sorted rule sets, such as the dist patch codec.
func CompareRules(a, b Rule) int { return compareRules(a, b) }

// compareRules orders rules canonically: by reversed suffix (hierarchical
// order), with plain rules before wildcards before exceptions at the same
// suffix. Used for deterministic serialization and diffing.
func compareRules(a, b Rule) int {
	if c := compareReversed(a.Suffix, b.Suffix); c != 0 {
		return c
	}
	return int(a.rank()) - int(b.rank())
}

// rank orders the rule kinds sharing one suffix: plain, wildcard,
// exception.
func (r Rule) rank() byte {
	switch {
	case r.Exception:
		return 2
	case r.Wildcard:
		return 1
	default:
		return 0
	}
}

// appendSortKey appends r's sort key: its suffix with the labels in
// reverse order, then its rank byte. Keys compare bytewise as the rules
// do under CompareRules: the reversed suffixes compare as
// compareReversed does, and a rank byte sorts below every label byte
// and '.', as the end of a reversed suffix does.
func appendSortKey(b []byte, r Rule) []byte {
	s := r.Suffix
	for {
		i := strings.LastIndexByte(s, '.')
		b = append(b, s[i+1:]...)
		if i < 0 {
			return append(b, r.rank())
		}
		b = append(b, '.')
		s = s[:i]
	}
}

// compareReversed returns the sign of
// strings.Compare(domain.Reverse(a), domain.Reverse(b)) without building
// either reversed string: it walks both names label by label from the
// right. After a label, the reversed string continues with '.' when
// more labels follow and ends otherwise, so when one label is a proper
// prefix of the other the shorter side's next byte is '.' or the end
// (which sorts below every byte); a label byte is never '.'.
func compareReversed(a, b string) int {
	for {
		i, j := strings.LastIndexByte(a, '.'), strings.LastIndexByte(b, '.')
		x, y := a[i+1:], b[j+1:]
		if x != y {
			switch {
			case strings.HasPrefix(y, x):
				if i < 0 || '.' < y[len(x)] {
					return -1
				}
				return 1
			case strings.HasPrefix(x, y):
				if j < 0 || '.' < x[len(y)] {
					return 1
				}
				return -1
			}
			return strings.Compare(x, y)
		}
		switch {
		case i < 0 && j < 0:
			return 0
		case i < 0:
			return -1
		case j < 0:
			return 1
		}
		a, b = a[:i], b[:j]
	}
}
