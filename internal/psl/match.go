package psl

import "repro/internal/domain"

// Result describes the outcome of matching a domain name against a list.
type Result struct {
	// SuffixLabels is the number of rightmost labels of the name that
	// form its public suffix.
	SuffixLabels int
	// Rule is the prevailing rule. Meaningless when Implicit is true.
	Rule Rule
	// Implicit reports that no explicit rule matched and the implicit
	// "*" rule prevailed (the rightmost label is the suffix).
	Implicit bool
}

// Matcher finds the prevailing rule for a domain name, per the algorithm
// at publicsuffix.org/list/:
//
//  1. A domain matches a rule when the rule's labels equal the rightmost
//     labels of the domain; a wildcard label matches exactly one label.
//  2. If more than one rule matches, an exception rule prevails.
//  3. Otherwise the rule with the most labels prevails.
//  4. If no rule matches, the implicit rule "*" prevails.
//
// Names passed to Match must already be normalized ASCII (lowercased,
// A-labels, no trailing dot), the form Normalize returns;
// List.PublicSuffix and friends normalize for their callers.
type Matcher interface {
	// Match returns the prevailing result for the name. The name is
	// assumed non-empty, normalized ASCII.
	Match(name string) Result
}

// LinearMatcher checks every rule on every lookup: a direct
// transcription of the algorithm above. It is the reference the packed
// matcher is checked against, by the differential tests and fuzzers and
// by the submission pipeline; do not use it for bulk work.
type LinearMatcher struct {
	rules []Rule
}

// NewLinearMatcher builds a LinearMatcher over the list's rules.
func NewLinearMatcher(l *List) *LinearMatcher {
	return &LinearMatcher{rules: l.Rules()}
}

// Match implements Matcher.
func (lm *LinearMatcher) Match(name string) Result {
	best := Result{SuffixLabels: 1, Implicit: true}
	for _, r := range lm.rules {
		if !r.Match(name) {
			continue
		}
		if r.Exception {
			return Result{SuffixLabels: domain.CountLabels(r.Suffix) - 1, Rule: r}
		}
		n := domain.CountLabels(r.Suffix)
		if r.Wildcard {
			n++
		}
		if n >= best.SuffixLabels && (best.Implicit || n > best.SuffixLabels || preferRule(r, best.Rule)) {
			best = Result{SuffixLabels: n, Rule: r}
		}
	}
	return best
}

// preferRule breaks ties between two same-length prevailing rules
// deterministically (normal over wildcard), matching the packed
// compiler, which applies a node's normal rule before its wildcard.
func preferRule(a, b Rule) bool {
	return !a.Wildcard && b.Wildcard
}

var _ Matcher = (*LinearMatcher)(nil)
