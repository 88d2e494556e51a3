package psl

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Severity grades a lint finding.
type Severity uint8

const (
	// SeverityInfo marks stylistic or informational findings.
	SeverityInfo Severity = iota
	// SeverityWarning marks constructs that are legal but usually
	// mistakes.
	SeverityWarning
	// SeverityError marks rules that cannot be parsed or that have no
	// effect.
	SeverityError
)

// String returns the conventional label.
func (s Severity) String() string {
	switch s {
	case SeverityError:
		return "error"
	case SeverityWarning:
		return "warning"
	default:
		return "info"
	}
}

// LintFinding is one issue found in a list file.
type LintFinding struct {
	Line     int
	Severity Severity
	Rule     string
	Message  string
}

// String renders the finding in compiler style.
func (f LintFinding) String() string {
	return fmt.Sprintf("%d: %s: %s (%s)", f.Line, f.Severity, f.Message, f.Rule)
}

// Lint checks a list file for structural problems the parser tolerates:
// duplicate rules, exception rules without a covering wildcard, rules
// outside any section, wildcards shadowing an identical plain rule,
// unparseable lines, unbalanced or misordered section markers, and
// rules out of canonical sort order within their section. It reads the
// raw text because several findings (duplicates, section placement,
// ordering) are erased by parsing; (*List).Lint reports the same
// findings for a parsed list's canonical text without rendering it.
func Lint(r io.Reader) ([]LintFinding, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	lt := newLinter()
	seen := make(map[string]int)          // canonical rule -> first line
	wildcardBases := make(map[string]int) // wildcard base suffix -> last line
	plain := make(map[string]int)         // plain suffix -> line
	for scanner.Scan() {
		lt.line++
		raw := strings.TrimSpace(scanner.Text())
		if raw == "" {
			continue
		}
		if strings.HasPrefix(raw, "//") {
			switch raw {
			case beginICANN:
				lt.begin(SectionICANN)
			case beginPrivate:
				lt.begin(SectionPrivate)
			case endICANN:
				lt.end(SectionICANN)
			case endPrivate:
				lt.end(SectionPrivate)
			}
			continue
		}
		line := raw
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		rule, err := ParseRule(line, lt.section)
		if err != nil {
			lt.add(SeverityError, line, "unparseable rule: "+err.Error())
			continue
		}
		key := rule.String()
		if first, dup := seen[key]; dup {
			lt.add(SeverityWarning, key, fmt.Sprintf("duplicate of line %d", first))
		} else {
			seen[key] = lt.line
		}
		lt.rule(rule, key)
		if rule.Wildcard {
			wildcardBases[rule.Suffix] = lt.line
		} else if !rule.Exception {
			plain[rule.Suffix] = lt.line
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	var coexist []lintRule
	for base, line := range wildcardBases {
		if _, ok := plain[base]; ok {
			coexist = append(coexist, lintRule{Rule{Suffix: base, Wildcard: true}, line})
		}
	}
	slices.SortFunc(coexist, func(a, b lintRule) int { return a.line - b.line })
	return lt.finish(func(base string) bool {
		_, ok := wildcardBases[base]
		return ok
	}, coexist), nil
}

// Lint returns exactly the findings LintString(l.Serialize()) reports,
// line numbers included, without rendering or re-parsing the text, for
// a list of canonical rules (as Parse and ParseRule produce them). It
// walks the canonical order, which holds no duplicate and nothing out
// of order, so those checks need no state; a wildcard's plain twin is
// the rule just before it, and an exception's covering wildcard is a
// binary search away.
func (l *List) Lint() []LintFinding {
	if strings.Contains(l.Version, "\n") {
		// A line break in the version label puts lines of the label's
		// own into the text, which only the text linter can read. It
		// fails only on a line over its 1 MiB cap, a label of that
		// size, and then has no findings to give.
		fs, _ := LintString(l.Serialize())
		return fs
	}
	lt := newLinter()
	lt.line = 1 // "// Public Suffix List"
	if l.Version != "" {
		lt.line++
	}
	if !l.Date.IsZero() {
		lt.line++
	}
	sorted := l.rules
	var coexist []lintRule
	for _, sec := range [...]Section{SectionICANN, SectionPrivate, SectionUnknown} {
		open := false
		for i, r := range sorted {
			if r.Section != sec {
				continue
			}
			if !open && sec != SectionUnknown {
				lt.line++
				lt.begin(sec)
			}
			open = true
			lt.line++
			lt.rules++
			if sec == SectionUnknown {
				lt.add(SeverityInfo, r.String(), msgOutsideSection)
			}
			if r.Exception {
				lt.exceptions = append(lt.exceptions, lintRule{r, lt.line})
			}
			// CompareRules puts a plain rule just before its wildcard.
			if prev := i - 1; r.Wildcard && prev >= 0 && sorted[prev].Suffix == r.Suffix &&
				!sorted[prev].Wildcard && !sorted[prev].Exception {
				coexist = append(coexist, lintRule{r, lt.line})
			}
		}
		if open && sec != SectionUnknown {
			lt.line++
			lt.end(sec)
		}
	}
	return lt.finish(func(base string) bool {
		_, ok := slices.BinarySearchFunc(sorted, Rule{Suffix: base, Wildcard: true}, compareRules)
		return ok
	}, coexist)
}

const msgOutsideSection = "rule outside ICANN/PRIVATE section markers"

// lintRule is a rule and the line it sits on.
type lintRule struct {
	rule Rule
	line int
}

// linter is the state of one lint pass shared by the text Lint and
// (*List).Lint: section-marker bookkeeping, the sort-order check, and
// the findings that need the whole file. Every finding is worded here.
type linter struct {
	findings []LintFinding
	line     int // current line number

	section          Section // section of the current line
	sawSectionMarker bool
	opened           map[Section]int // section -> line of its BEGIN
	openSection      Section
	openLine         int

	// Sort-order bookkeeping: the previous rule seen in the current
	// section, reset at every marker. The canonical order is
	// CompareRules — the order Serialize emits and the dist codec
	// requires — which within a section is the alphabetical-by-
	// reversed-labels order the real pslint enforces.
	prevRule Rule
	prevLine int
	havePrev bool

	rules      int        // rule lines seen
	exceptions []lintRule // in line order
}

func newLinter() *linter {
	return &linter{opened: make(map[Section]int)}
}

func (lt *linter) add(sev Severity, rule, msg string) {
	lt.addAt(lt.line, sev, rule, msg)
}

func (lt *linter) addAt(line int, sev Severity, rule, msg string) {
	lt.findings = append(lt.findings, LintFinding{Line: line, Severity: sev, Rule: rule, Message: msg})
}

func sectionName(s Section) string {
	if s == SectionPrivate {
		return "PRIVATE"
	}
	return "ICANN"
}

// begin handles a BEGIN marker on the current line.
func (lt *linter) begin(s Section) {
	if lt.openSection != SectionUnknown {
		lt.add(SeverityError, "", fmt.Sprintf("BEGIN %s DOMAINS inside unclosed %s section from line %d",
			sectionName(s), sectionName(lt.openSection), lt.openLine))
	}
	if first, dup := lt.opened[s]; dup {
		lt.add(SeverityError, "", fmt.Sprintf("duplicate BEGIN %s DOMAINS (first at line %d)", sectionName(s), first))
	} else {
		lt.opened[s] = lt.line
	}
	if s == SectionICANN {
		if _, privFirst := lt.opened[SectionPrivate]; privFirst {
			lt.add(SeverityWarning, "", "ICANN section appears after PRIVATE section; canonical order is ICANN first")
		}
	}
	lt.section, lt.sawSectionMarker = s, true
	lt.openSection, lt.openLine = s, lt.line
	lt.havePrev = false
}

// end handles an END marker on the current line.
func (lt *linter) end(s Section) {
	if lt.openSection != s {
		want := "no open section"
		if lt.openSection != SectionUnknown {
			want = fmt.Sprintf("open section is %s (line %d)", sectionName(lt.openSection), lt.openLine)
		}
		lt.add(SeverityError, "", fmt.Sprintf("END %s DOMAINS does not match: %s", sectionName(s), want))
	}
	lt.section = SectionUnknown
	lt.openSection = SectionUnknown
	lt.havePrev = false
}

// rule checks one parsed rule line's placement: outside any section,
// or out of order within its section.
func (lt *linter) rule(r Rule, key string) {
	lt.rules++
	if lt.section == SectionUnknown {
		lt.add(SeverityInfo, key, msgOutsideSection)
	} else {
		if lt.havePrev && CompareRules(r, lt.prevRule) < 0 {
			lt.add(SeverityWarning, key, fmt.Sprintf("out of sort order: %q should come before %q (line %d)",
				key, lt.prevRule.String(), lt.prevLine))
		}
		lt.prevRule, lt.prevLine, lt.havePrev = r, lt.line, true
	}
	if r.Exception {
		lt.exceptions = append(lt.exceptions, lintRule{r, lt.line})
	}
}

// finish adds the findings that need the whole file and returns them
// all. hasWildcard reports whether a wildcard rule "*.base" is present;
// coexist lists, in line order, the wildcard rules that sit beside a
// plain rule of the same suffix.
func (lt *linter) finish(hasWildcard func(base string) bool, coexist []lintRule) []LintFinding {
	if lt.openSection != SectionUnknown {
		lt.addAt(lt.openLine, SeverityError, "",
			fmt.Sprintf("%s section opened at line %d is never closed", sectionName(lt.openSection), lt.openLine))
	}
	// Exceptions must cancel a wildcard: "!www.ck" needs "*.ck".
	for _, e := range lt.exceptions {
		parent, ok := parentOf(e.rule.Suffix)
		if !ok {
			lt.addAt(e.line, SeverityError, e.rule.String(), "single-label exception cancels nothing")
			continue
		}
		if !hasWildcard(parent) {
			lt.addAt(e.line, SeverityWarning, e.rule.String(),
				fmt.Sprintf("exception has no covering wildcard rule *.%s", parent))
		}
	}
	// A wildcard next to an identical plain rule is usually an
	// incomplete migration ("ck" + "*.ck" both present).
	for _, w := range coexist {
		lt.addAt(w.line, SeverityInfo, w.rule.String(),
			fmt.Sprintf("wildcard coexists with plain rule %q", w.rule.Suffix))
	}
	if !lt.sawSectionMarker && lt.rules > 0 {
		lt.addAt(1, SeverityInfo, "", "file has no ICANN/PRIVATE section markers")
	}
	return lt.findings
}

// parentOf is domain.Parent without the import cycle risk; rules are
// already validated so a simple split suffices.
func parentOf(s string) (string, bool) {
	i := strings.IndexByte(s, '.')
	if i < 0 {
		return "", false
	}
	return s[i+1:], true
}

// LintString is Lint over a string.
func LintString(s string) ([]LintFinding, error) {
	return Lint(strings.NewReader(s))
}

// MaxSeverity returns the highest severity among findings, or
// SeverityInfo for an empty set.
func MaxSeverity(findings []LintFinding) Severity {
	max := SeverityInfo
	for _, f := range findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}
