// Package domain provides hostname parsing, validation and label
// manipulation utilities shared by the PSL engine and the measurement
// pipeline.
//
// Throughout this repository a "domain name" is the textual, dot-separated
// form (e.g. "www.example.co.uk"); a "label" is one dot-separated component.
// Functions in this package operate on names in their ASCII (A-label) form;
// use package idna to convert U-labels first.
package domain

import (
	"errors"
	"strings"
)

// Errors returned by Check and the parsing helpers.
var (
	ErrEmpty        = errors.New("domain: empty name")
	ErrTooLong      = errors.New("domain: name exceeds 253 characters")
	ErrEmptyLabel   = errors.New("domain: empty label")
	ErrLongLabel    = errors.New("domain: label exceeds 63 characters")
	ErrBadCharacter = errors.New("domain: invalid character")
	ErrHyphenEdge   = errors.New("domain: label starts or ends with hyphen")
)

// MaxNameLength is the maximum length of a full domain name, per RFC 1035
// (255 octets on the wire, 253 characters in presentation format).
const MaxNameLength = 253

// MaxLabelLength is the maximum length of a single label, per RFC 1035.
const MaxLabelLength = 63

// Normalize lowercases a name and strips a single trailing dot (the DNS
// root label). It does not validate; combine with Check when input is
// untrusted.
func Normalize(name string) string {
	name = strings.TrimSuffix(name, ".")
	// Fast path: already lowercase ASCII.
	lower := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return name
	}
	return strings.ToLower(name)
}

// Check validates a normalized domain name. It accepts letters, digits,
// hyphens and underscores (underscores occur in real hostnames such as
// DMARC record names), enforcing RFC 1035 length limits. The name must not
// contain empty labels and labels must not begin or end with a hyphen.
func Check(name string) error {
	if name == "" {
		return ErrEmpty
	}
	if len(name) > MaxNameLength {
		return ErrTooLong
	}
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			if i == start {
				return ErrEmptyLabel
			}
			if i-start > MaxLabelLength {
				return ErrLongLabel
			}
			if name[start] == '-' || name[i-1] == '-' {
				return ErrHyphenEdge
			}
			start = i + 1
			continue
		}
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-' || c == '_':
		case c >= 'A' && c <= 'Z':
			// Callers should Normalize first, but accept uppercase
			// rather than failing on case alone.
		default:
			return ErrBadCharacter
		}
	}
	return nil
}

// Labels splits a name into its labels. Labels("a.b.c") returns
// ["a", "b", "c"]. The empty name yields nil.
func Labels(name string) []string {
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// CountLabels reports the number of labels without allocating.
func CountLabels(name string) int {
	if name == "" {
		return 0
	}
	return strings.Count(name, ".") + 1
}

// Parent returns the name with its leftmost label removed, and true if a
// parent exists. Parent("a.b.c") is ("b.c", true); Parent("c") is ("", false).
func Parent(name string) (string, bool) {
	i := strings.IndexByte(name, '.')
	if i < 0 {
		return "", false
	}
	return name[i+1:], true
}

// Suffixes iterates over every suffix of name from the full name down to
// the rightmost label, calling fn for each. Iteration stops early if fn
// returns false. For "a.b.c" fn sees "a.b.c", "b.c", "c".
func Suffixes(name string, fn func(suffix string) bool) {
	for {
		if !fn(name) {
			return
		}
		rest, ok := Parent(name)
		if !ok {
			return
		}
		name = rest
	}
}

// HasSuffix reports whether name equals suffix or ends with "."+suffix.
// Unlike strings.HasSuffix it respects label boundaries: HasSuffix
// ("notgoogle.com", "google.com") is false.
func HasSuffix(name, suffix string) bool {
	if name == suffix {
		return true
	}
	if len(name) <= len(suffix) {
		return false
	}
	return strings.HasSuffix(name, suffix) && name[len(name)-len(suffix)-1] == '.'
}

// TrimSuffixLabels removes n labels from the right of the name. If n is
// greater than or equal to the label count the empty string is returned.
func TrimSuffixLabels(name string, n int) string {
	for ; n > 0; n-- {
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			return ""
		}
		name = name[:i]
	}
	return name
}

// LastLabels returns the rightmost n labels of name, or the whole name if
// it has fewer than n labels.
func LastLabels(name string, n int) string {
	if n <= 0 {
		return ""
	}
	i := len(name)
	for ; n > 0; n-- {
		j := strings.LastIndexByte(name[:i], '.')
		if j < 0 {
			return name
		}
		i = j
	}
	return name[i+1:]
}

// Reverse returns the labels in reversed order joined by dots:
// Reverse("www.example.com") is "com.example.www". Reversed names sort
// hierarchically: strings.Compare over them defines the canonical rule
// order, which psl.CompareRules computes without building them, and the
// psl tests use Reverse as that order's oracle.
func Reverse(name string) string {
	labels := Labels(name)
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return strings.Join(labels, ".")
}

// Host extracts the hostname from a URL-ish string without requiring a
// full URL parse: scheme, userinfo, port, path, query and fragment are
// stripped. It mirrors the paper's step of reducing each HTTP Archive URL
// to its domain name component.
func Host(rawURL string) string {
	s := rawURL
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	} else {
		s = strings.TrimPrefix(s, "//") // scheme-relative URL
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.LastIndexByte(s, '@'); i >= 0 {
		s = s[i+1:]
	}
	// IPv6 literal: keep the bracketed form intact, minus the port.
	if strings.HasPrefix(s, "[") {
		if i := strings.IndexByte(s, ']'); i >= 0 {
			return s[:i+1]
		}
		return s
	}
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return Normalize(s)
}

// IsIP reports whether the name looks like an IPv4 or (bracketed or bare)
// IPv6 address literal rather than a domain name. PSL rules never apply to
// IP addresses. It is on the lookup hot path for every query, so the IPv4
// scan works label by label without allocating.
func IsIP(name string) bool {
	if strings.HasPrefix(name, "[") || strings.IndexByte(name, ':') >= 0 {
		return true
	}
	// IPv4: exactly four decimal octets, each in [0, 255].
	octets := 0
	start := 0
	for i := 0; i <= len(name); i++ {
		if i != len(name) && name[i] != '.' {
			continue
		}
		l := i - start
		if l == 0 || l > 3 {
			return false
		}
		n := 0
		for j := start; j < i; j++ {
			if name[j] < '0' || name[j] > '9' {
				return false
			}
			n = n*10 + int(name[j]-'0')
		}
		if n > 255 {
			return false
		}
		octets++
		if octets > 4 {
			return false
		}
		start = i + 1
	}
	return octets == 4
}
