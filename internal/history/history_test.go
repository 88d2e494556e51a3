package history

import (
	"testing"
	"time"

	"repro/internal/psl"
)

// sharedHistory is generated once; the generator is deterministic, so
// tests may share it read-only.
var sharedHistory = Generate(Config{Seed: DefaultSeed})

func TestVersionCountAndDates(t *testing.T) {
	h := sharedHistory
	if h.Len() != 1142 {
		t.Fatalf("Len = %d, want 1142", h.Len())
	}
	first, last := h.Meta(0), h.Meta(h.Len()-1)
	if !first.Date.Equal(time.Date(2007, 3, 22, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("first date = %v", first.Date)
	}
	if !last.Date.Equal(time.Date(2022, 10, 20, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("last date = %v", last.Date)
	}
	for i := 1; i < h.Len(); i++ {
		if !h.Meta(i).Date.After(h.Meta(i - 1).Date) {
			t.Fatalf("dates not strictly increasing at %d", i)
		}
	}
}

// TestGrowthCalibration pins the Figure 2 shape: start ~2447, end ~9368,
// ~8062 around 2017, and a visible spike of ~1623 rules in mid-2012.
func TestGrowthCalibration(t *testing.T) {
	h := sharedHistory
	if got := h.Meta(0).Rules; got != 2447 {
		t.Errorf("initial rules = %d, want 2447", got)
	}
	if got := h.Meta(h.Len() - 1).Rules; got < 9300 || got > 9430 {
		t.Errorf("final rules = %d, want ~9368", got)
	}
	at2017 := h.IndexAtDate(time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC))
	if got := h.Meta(at2017).Rules; got < 7900 || got > 8200 {
		t.Errorf("rules at 2017 = %d, want ~8062", got)
	}
	// Spike: some single version in 2012 adds >1500 rules.
	spike := false
	for _, ev := range h.Events() {
		if ev.Date.Year() == 2012 && len(ev.Added) >= 1500 {
			spike = true
			break
		}
	}
	if !spike {
		t.Error("no mid-2012 spike version adding >=1500 rules")
	}
}

// TestComponentMix pins the final component distribution near the
// paper's 17% / 57.5% / 25.3% / ~0.1%.
func TestComponentMix(t *testing.T) {
	h := sharedHistory
	series := h.GrowthSeries()
	final := series[len(series)-1]
	total := float64(final.Total)
	share := func(i int) float64 { return float64(final.ByComponents[i]) / total }
	if s := share(0); s < 0.14 || s > 0.20 {
		t.Errorf("1-component share = %.3f, want ~0.17", s)
	}
	if s := share(1); s < 0.53 || s > 0.62 {
		t.Errorf("2-component share = %.3f, want ~0.575", s)
	}
	if s := share(2); s < 0.21 || s > 0.29 {
		t.Errorf("3-component share = %.3f, want ~0.253", s)
	}
	if s := share(3); s > 0.01 {
		t.Errorf("4-component share = %.3f, want ~0.001", s)
	}
}

func TestGrowthSeriesMatchesMetas(t *testing.T) {
	h := sharedHistory
	series := h.GrowthSeries()
	if len(series) != h.Len() {
		t.Fatalf("series length %d != versions %d", len(series), h.Len())
	}
	for _, idx := range []int{0, 1, 100, 571, h.Len() - 1} {
		sum := 0
		for _, c := range series[idx].ByComponents {
			sum += c
		}
		if sum != series[idx].Total {
			t.Errorf("v%d: component sum %d != total %d", idx, sum, series[idx].Total)
		}
		if series[idx].Total != h.Meta(idx).Rules {
			t.Errorf("v%d: series total %d != meta rules %d", idx, series[idx].Total, h.Meta(idx).Rules)
		}
	}
}

func TestListAtMatchesMeta(t *testing.T) {
	h := sharedHistory
	for _, idx := range []int{0, 57, 571, h.Len() - 1} {
		l := h.ListAt(idx)
		if l.Len() != h.Meta(idx).Rules {
			t.Errorf("v%d: list has %d rules, meta says %d", idx, l.Len(), h.Meta(idx).Rules)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Seed: DefaultSeed})
	b := Generate(Config{Seed: DefaultSeed})
	if a.Len() != b.Len() {
		t.Fatal("lengths differ across identical seeds")
	}
	if a.Latest().Fingerprint() != b.Latest().Fingerprint() {
		t.Error("latest fingerprints differ across identical seeds")
	}
	c := Generate(Config{Seed: 999})
	if a.Latest().Fingerprint() == c.Latest().Fingerprint() {
		t.Error("different seeds produced identical corpora")
	}
}

// TestRulesAtReplayOrder: RulesAt keeps introduction order (a later
// version's additions come last, whatever their canonical place) and
// holds the same rules as ListAt, which sorts them.
func TestRulesAtReplayOrder(t *testing.T) {
	h := Generate(Config{Seed: DefaultSeed, Versions: 40})
	second := mustRule("zz-second.example", psl.SectionPrivate)
	third := mustRule("aa-third.example", psl.SectionPrivate)
	h.Append(time.Time{}, []psl.Rule{second, third}, nil)
	i := h.Len() - 1
	rules := h.RulesAt(i)
	if n := len(rules); n < 2 || rules[n-2] != second || rules[n-1] != third {
		t.Fatalf("RulesAt(%d) ends %v, want the appended rules in order", i, rules[len(rules)-2:])
	}
	l := h.ListAt(i)
	if want := psl.NewList(rules); !l.Equal(want) || l.Len() != len(rules) || l.Len() != h.Meta(i).Rules {
		t.Fatalf("ListAt(%d) holds %d rules, RulesAt %d, meta %d", i, l.Len(), len(rules), h.Meta(i).Rules)
	}
}

func TestCuratedSchedule(t *testing.T) {
	h := sharedHistory
	latest := h.Latest()
	// Every curated suffix is in the final list.
	for _, c := range curatedAll() {
		if !latest.Contains(ruleFromCurated(c)) {
			t.Errorf("latest list missing curated %q", c.Suffix)
		}
	}
	// Addition timing: a list as old as the curated age must miss the
	// suffix; a list younger must have it.
	for _, c := range Table2Suffixes {
		key := ruleFromCurated(c)
		older := h.ListAt(h.IndexForAge(c.AgeDays + 30))
		if older.Contains(key) {
			t.Errorf("%q present in list %d days old (added at age %d)", c.Suffix, c.AgeDays+30, c.AgeDays)
		}
		newer := h.ListAt(h.IndexForAge(c.AgeDays - 30))
		if !newer.Contains(key) {
			t.Errorf("%q absent from list %d days old (added at age %d)", c.Suffix, c.AgeDays-30, c.AgeDays)
		}
	}
}

func TestIndexAtDate(t *testing.T) {
	h := sharedHistory
	if h.IndexAtDate(time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)) != -1 {
		t.Error("date before history should return -1")
	}
	if h.IndexAtDate(h.Meta(0).Date) != 0 {
		t.Error("first date should map to version 0")
	}
	if got := h.IndexAtDate(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)); got != h.Len()-1 {
		t.Errorf("far-future date maps to %d, want last", got)
	}
	// Every meta date maps back to its own version.
	for _, idx := range []int{0, 10, 500, h.Len() - 1} {
		if got := h.IndexAtDate(h.Meta(idx).Date); got != idx {
			t.Errorf("IndexAtDate(meta %d) = %d", idx, got)
		}
	}
}

func TestIndexForAgeClamps(t *testing.T) {
	h := sharedHistory
	if got := h.IndexForAge(100000); got != 0 {
		t.Errorf("huge age maps to %d, want 0", got)
	}
	if got := h.IndexForAge(0); got != h.Len()-1 {
		t.Errorf("age 0 maps to %d, want latest", got)
	}
}

func TestAgeOfVersion(t *testing.T) {
	h := sharedHistory
	if got := h.AgeOfVersion(h.Len() - 1); got != 49 {
		// 2022-10-20 -> 2022-12-08 is 49 days.
		t.Errorf("age of last version = %d, want 49", got)
	}
}

func TestRuleSpans(t *testing.T) {
	h := sharedHistory
	spans := h.RuleSpans()
	// com is present from version 0 forever.
	ss, ok := spans["com"]
	if !ok || len(ss) != 1 || ss[0].From != 0 || ss[0].To != h.Len() {
		t.Errorf("spans[com] = %v", ss)
	}
	// Every removed rule closes its span.
	removedTotal := 0
	for _, ev := range h.Events() {
		removedTotal += len(ev.Removed)
		for _, r := range ev.Removed {
			found := false
			for _, s := range spans[r.String()] {
				if s.To == ev.Seq {
					found = true
				}
			}
			if !found {
				t.Fatalf("removal of %v at v%d has no closing span", r, ev.Seq)
			}
		}
	}
	if removedTotal == 0 {
		t.Error("history has no churn removals at all")
	}
	// Span coverage reproduces the final list size.
	active := 0
	for _, ss := range spans {
		if ss[len(ss)-1].To == h.Len() {
			active++
		}
	}
	if active != h.Latest().Len() {
		t.Errorf("active spans %d != latest list size %d", active, h.Latest().Len())
	}
}

// TestWildcardRestructures checks the early-era mechanics behind the
// paper's Figure 6: wildcard ccTLD rules present at the first version
// are replaced by explicit rules between 2008 and mid-2013.
func TestWildcardRestructures(t *testing.T) {
	h := sharedHistory
	ccs := WildcardCCs()
	if len(ccs) < 30 {
		t.Fatalf("only %d wildcard ccTLDs", len(ccs))
	}
	first, latest := h.ListAt(0), h.Latest()
	spans := h.RuleSpans()
	for _, cc := range ccs {
		key := "*." + cc
		wildcard := mustRule(key, psl.SectionICANN)
		if !first.Contains(wildcard) {
			t.Errorf("first version missing %s", key)
		}
		if latest.Contains(wildcard) {
			t.Errorf("latest version still carries %s", key)
		}
		if !latest.Contains(mustRule("co."+cc, psl.SectionICANN)) {
			t.Errorf("latest version missing restructured co.%s", cc)
		}
		ss := spans[key]
		if len(ss) != 1 || ss[0].To == h.Len() {
			t.Errorf("span of %s = %v, want single closed interval", key, ss)
			continue
		}
		when := h.Meta(ss[0].To).Date
		if when.Year() < 2008 || when.Year() > 2013 {
			t.Errorf("%s restructured at %v, want 2008-2013", key, when)
		}
	}
	// Permanent wildcards survive.
	if !latest.Contains(mustRule("*.ck", psl.SectionICANN)) || !latest.Contains(mustRule("*.er", psl.SectionICANN)) {
		t.Error("permanent wildcard family (*.ck / *.er) was lost")
	}
}

func TestLatestListIsValid(t *testing.T) {
	h := sharedHistory
	latest := h.Latest()
	// The serialized corpus must reparse identically (all rules valid).
	back, err := psl.ParseString(latest.Serialize())
	if err != nil {
		t.Fatalf("latest list does not reparse: %v", err)
	}
	if !back.Equal(latest) {
		t.Error("latest list reparse lost rules")
	}
}

func TestSmallConfig(t *testing.T) {
	h := Generate(Config{Seed: 3, Versions: 50, StartRules: 100})
	if h.Len() != 50 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.Meta(0).Rules != 100 {
		t.Errorf("initial = %d, want 100", h.Meta(0).Rules)
	}
	if h.Latest().Len() < 100 {
		t.Error("list shrank overall")
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: DefaultSeed})
	}
}

func BenchmarkListAtLatest(b *testing.B) {
	h := sharedHistory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ListAt(h.Len() - 1)
	}
}

func BenchmarkGrowthSeries(b *testing.B) {
	h := sharedHistory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.GrowthSeries()
	}
}
