package psl

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Map-and-sort oracles: the canonical order and outputs as they were
// computed before lists held only their canonical order, by dropping
// repeated keys with a map and sorting a copy.

// oracleCanonical is the rule order NewList(rules) must hold: the first
// rule given for each key, sorted.
func oracleCanonical(rules []Rule) []Rule {
	seen := make(map[string]bool)
	var out []Rule
	for _, r := range rules {
		if !seen[r.String()] {
			seen[r.String()] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return CompareRules(out[i], out[j]) < 0 })
	return out
}

func oracleSorted(l *List) []Rule {
	rules := append([]Rule(nil), l.Rules()...)
	sort.Slice(rules, func(i, j int) bool { return CompareRules(rules[i], rules[j]) < 0 })
	return rules
}

func oracleFingerprint(l *List) string {
	var b strings.Builder
	for _, r := range oracleSorted(l) {
		b.WriteString(r.String() + "\n")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func oracleSerialize(l *List) string {
	var b strings.Builder
	b.WriteString("// Public Suffix List\n")
	if l.Version != "" {
		b.WriteString("// VERSION: " + l.Version + "\n")
	}
	if !l.Date.IsZero() {
		b.WriteString("// DATE: " + l.Date.UTC().Format(time.RFC3339) + "\n")
	}
	for _, s := range []struct {
		sec        Section
		begin, end string
	}{{SectionICANN, beginICANN, endICANN}, {SectionPrivate, beginPrivate, endPrivate}, {SectionUnknown, "", ""}} {
		var rules []Rule
		for _, r := range oracleSorted(l) {
			if r.Section == s.sec {
				rules = append(rules, r)
			}
		}
		if len(rules) == 0 {
			continue
		}
		if s.begin != "" {
			b.WriteString(s.begin + "\n")
		}
		for _, r := range rules {
			b.WriteString(r.String() + "\n")
		}
		if s.end != "" {
			b.WriteString(s.end + "\n")
		}
	}
	return b.String()
}

// oracleWithDiff applies d the way dist.Patch.Apply did with maps:
// drop removed keys, move surviving ones (last entry wins), append the
// additions, and drop keys already present.
func oracleWithDiff(l *List, d Diff) []Rule {
	drop := make(map[string]bool)
	for _, r := range d.Removed {
		drop[r.String()] = true
	}
	move := make(map[string]Section)
	for _, r := range d.Moved {
		move[r.String()] = r.Section
	}
	var rules []Rule
	for _, r := range l.Rules() {
		if drop[r.String()] {
			continue
		}
		if sec, ok := move[r.String()]; ok {
			r.Section = sec
		}
		rules = append(rules, r)
	}
	return oracleCanonical(append(rules, d.Added...))
}

// randRule draws from a small label alphabet so that keys collide,
// plain rules meet their wildcards, and exceptions meet (or miss)
// their covering wildcard.
func randRule(rng *rand.Rand) Rule {
	labels := []string{"aa", "b", "bb", "ck", "com", "xn--p1ai", "a1", "b-2"}
	parts := make([]string, 1+rng.Intn(3))
	for i := range parts {
		parts[i] = labels[rng.Intn(len(labels))]
	}
	r := Rule{Suffix: strings.Join(parts, "."), Section: Section(rng.Intn(3))}
	switch rng.Intn(5) {
	case 0:
		r.Wildcard = true
	case 1:
		r.Exception = true
	}
	return r
}

func randRules(rng *rand.Rand, n int) []Rule {
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = randRule(rng)
	}
	return rules
}

// randDiff draws a delta against l: removals of present and absent
// rules, additions of new and already-present keys (some re-adding a
// removed key), moves of present and absent keys, duplicates within
// each slice, and no particular order.
func randDiff(rng *rand.Rand, l *List) Diff {
	var d Diff
	present := l.Rules()
	pick := func() Rule {
		if len(present) > 0 && rng.Intn(2) == 0 {
			return present[rng.Intn(len(present))]
		}
		return randRule(rng)
	}
	for i := rng.Intn(4); i > 0; i-- {
		d.Removed = append(d.Removed, pick())
	}
	for i := rng.Intn(5); i > 0; i-- {
		r := pick()
		if len(d.Removed) > 0 && rng.Intn(4) == 0 {
			r = d.Removed[rng.Intn(len(d.Removed))]
		}
		r.Section = Section(rng.Intn(3))
		d.Added = append(d.Added, r)
	}
	for i := rng.Intn(3); i > 0; i-- {
		r := pick()
		r.Section = Section(rng.Intn(3))
		d.Moved = append(d.Moved, r)
	}
	return d
}

func collect(seq func(yield func(Rule) bool)) []Rule {
	var out []Rule
	seq(func(r Rule) bool {
		out = append(out, r)
		return true
	})
	return out
}

func checkCanonical(t *testing.T, l *List, what string) {
	t.Helper()
	if got, want := l.Rules(), oracleSorted(l); !slices.Equal(got, want) {
		t.Fatalf("%s: Rules = %v, want them sorted %v", what, got, want)
	}
	if got, want := l.Serialize(), oracleSerialize(l); got != want {
		t.Fatalf("%s: Serialize diverges from the sort oracle:\n%s\nvs\n%s", what, got, want)
	}
	if got, want := l.Fingerprint(), oracleFingerprint(l); got != want {
		t.Fatalf("%s: Fingerprint = %s, oracle %s", what, got, want)
	}
}

// TestWithDiffKeepsCanonicalOrder: after any chain of deltas, a list's
// rules are what the map-based apply produced, sorted, and its
// canonical outputs are byte-identical to the sort oracle's.
func TestWithDiffKeepsCanonicalOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewList(randRules(rng, rng.Intn(30)))
		l.Version = "v1"
		if rng.Intn(2) == 0 {
			l.Date = time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
		}
		if seed%3 == 0 {
			// Start from an adopted order, as a bootstrapped edge does.
			var err error
			if l, err = NewSortedList(oracleSorted(l)); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 12; step++ {
			d := randDiff(rng, l)
			next := l.WithDiff(d)
			want := oracleWithDiff(l, d)
			if !slices.Equal(next.Rules(), want) {
				t.Fatalf("seed %d step %d: Rules() = %v, want %v (diff %+v)", seed, step, next.Rules(), want, d)
			}
			if next.Date != l.Date || next.Version != l.Version {
				t.Fatalf("seed %d step %d: metadata not kept", seed, step)
			}
			checkCanonical(t, next, "derived")
			if !slices.Equal(collect(MergeDiff(l.Rules(), d)), next.Rules()) {
				t.Fatalf("seed %d step %d: MergeDiff disagrees with WithDiff", seed, step)
			}
			l = next
		}
	}
}

// TestCanonicalOutputsMatchSortOracle: NewList keeps the first rule of
// each key in sorted order, and gives the same Serialize and
// Fingerprint bytes as the sort oracle, with and without metadata.
func TestCanonicalOutputsMatchSortOracle(t *testing.T) {
	checkCanonical(t, MustParse(fixtureList), "fixture")
	checkCanonical(t, NewList(nil), "empty")
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := randRules(rng, rng.Intn(60))
		l := NewList(rules)
		if want := oracleCanonical(rules); !slices.Equal(l.Rules(), want) {
			t.Fatalf("seed %d: NewList rules = %v, want %v", seed, l.Rules(), want)
		}
		if seed%2 == 0 {
			l.Version = "v0007-abc"
			l.Date = time.Unix(1_600_000_000+seed, 0)
		}
		checkCanonical(t, l, "random")
	}
}

// TestFingerprintOfSortedPinned pins the fingerprint to its definition:
// the SHA-256 of the rule lines, each in list syntax and ending "\n".
func TestFingerprintOfSortedPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rules := range [][]Rule{nil, oracleSorted(MustParse(fixtureList)), oracleSorted(NewList(randRules(rng, 5000)))} {
		var b strings.Builder
		for _, r := range rules {
			b.WriteString(r.String() + "\n")
		}
		sum := sha256.Sum256([]byte(b.String()))
		if got, want := FingerprintOfSorted(rules), hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("%d rules: FingerprintOfSorted = %s, sha256 of the lines = %s", len(rules), got, want)
		}
	}
}

// TestFingerprintOfSortedAllocsDoNotGrow: hashing reuses one buffer, so
// a 10-rule and a 5,000-rule set cost the same allocations.
func TestFingerprintOfSortedAllocsDoNotGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := oracleSorted(NewList(randRules(rng, 10)))
	large := oracleSorted(NewList(randRules(rng, 5000)))
	a := testing.AllocsPerRun(20, func() { FingerprintOfSorted(small) })
	b := testing.AllocsPerRun(20, func() { FingerprintOfSorted(large) })
	if b > a || b > 5 {
		t.Fatalf("allocations: %v for %d rules, %v for %d rules; want equal and at most 5", a, len(small), b, len(large))
	}
}

func TestNewSortedListRejectsDisorder(t *testing.T) {
	sorted := oracleSorted(MustParse(fixtureList))
	if _, err := NewSortedList(sorted); err != nil {
		t.Fatalf("sorted rules refused: %v", err)
	}
	swapped := slices.Clone(sorted)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	dup := slices.Insert(slices.Clone(sorted), 3, sorted[3])
	for name, rules := range map[string][]Rule{"out of order": swapped, "duplicate": dup} {
		if _, err := NewSortedList(rules); !errors.Is(err, ErrNotCanonical) {
			t.Errorf("%s: err = %v, want ErrNotCanonical", name, err)
		}
	}
}

// FuzzListLintMatchesText: linting a list's rules reports exactly what
// linting its serialized text does, line numbers included.
func FuzzListLintMatchesText(f *testing.F) {
	f.Add("com\nnet\n", "", int64(0))                                       // unknown-section rules
	f.Add(beginICANN+"\n!www.example\n"+endICANN+"\n", "v1", int64(0))      // orphan exception
	f.Add(beginICANN+"\n!ck\n"+endICANN+"\n", "", int64(1_600_000_000))     // single-label exception
	f.Add(beginICANN+"\nck\n*.ck\n!www.ck\n"+endICANN+"\n", "v2", int64(1)) // wildcard + plain
	f.Add(beginICANN+"\nck\n"+endICANN+"\n"+beginPrivate+"\n*.ck\n"+endPrivate+"\nzz\n*.zz\n", "v3", int64(0))
	f.Add("", "", int64(0))                           // empty list
	f.Add("", "v0001-deadbeef", int64(1_666_000_000)) // empty list, version and date set
	f.Add(fixtureList, "v0042", int64(1_700_000_000))
	f.Add("com\n", "v9\n"+beginICANN+"\n!a.com", int64(0)) // a version label carrying lines
	f.Fuzz(func(t *testing.T, text, version string, date int64) {
		l, err := ParseString(text)
		if err != nil {
			return
		}
		l.Version = version
		if date != 0 {
			l.Date = time.Unix(date, 0)
		}
		want, err := LintString(l.Serialize())
		if err != nil {
			return // a line over the scanner's 1 MiB cap; no rule line can be one
		}
		if got := l.Lint(); !slices.Equal(got, want) {
			t.Fatalf("(*List).Lint() = %v\nLintString(Serialize()) = %v\ntext:\n%s", got, want, l.Serialize())
		}
	})
}

// TestCanonicalOrderConcurrentFirstUse: goroutines racing to a cold
// list's first compile and fingerprint, and to deltas derived from it,
// all see one order.
func TestCanonicalOrderConcurrentFirstUse(t *testing.T) {
	l := MustParse(fixtureList)
	want := oracleSerialize(l)
	add := Rule{Suffix: "concurrent.example", Section: SectionPrivate}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				l.Matcher()
			case 1:
				l.Fingerprint()
			case 2:
				if l.WithRules(add).Fingerprint() == l.Fingerprint() {
					t.Error("adding a rule kept the fingerprint")
				}
			default:
				l.Lint()
			}
			if got := l.Serialize(); got != want {
				t.Errorf("goroutine %d: Serialize diverged", g)
			}
		}(g)
	}
	wg.Wait()
}
