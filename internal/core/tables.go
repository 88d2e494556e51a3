package core

import (
	"sort"

	"repro/internal/iana"
	"repro/internal/psl"
	"repro/internal/repos"
	"repro/internal/stats"
)

// Table2Row is one line of the paper's Table 2: an eTLD created by a
// rule addition, the snapshot hostnames under it, and how many projects
// of each class carry a list that predates the rule.
type Table2Row struct {
	Suffix    string
	Hostnames int
	// AddedSeq is the version that introduced the rule; AgeDays its age
	// at the measurement instant.
	AddedSeq int
	AgeDays  int
	// Project counts whose embedded list misses the rule.
	Dependency      int
	FixedProduction int
	FixedTestOther  int
	Updated         int
}

// Table2Result is the full Table 2 computation.
type Table2Result struct {
	// Rows are the affected eTLDs sorted by hostnames descending.
	Rows []Table2Row
	// TotalETLDs and TotalHostnames are the paper's headline "1,313
	// eTLDs affecting 50,750 hostnames" totals: eTLDs in the snapshot
	// that at least one fixed-production project is missing.
	TotalETLDs     int
	TotalHostnames int
}

// MissingETLDs computes Table 2 for a repository corpus.
func (p *Pipeline) MissingETLDs(corpus []repos.Repository) Table2Result {
	bySuffix := p.hostsBySuffix()

	// Repo classes with known ages, as version sequence numbers.
	var depSeqs, prodSeqs, testOtherSeqs, updSeqs []int
	for _, r := range corpus {
		if !r.HasKnownAge() {
			continue
		}
		seq := p.H.IndexForAge(r.ListAgeDays)
		switch {
		case r.Strategy == repos.StrategyDependency:
			depSeqs = append(depSeqs, seq)
		case r.Strategy == repos.StrategyUpdated:
			updSeqs = append(updSeqs, seq)
		case r.Sub == repos.SubProduction:
			prodSeqs = append(prodSeqs, seq)
		default: // fixed test + other
			testOtherSeqs = append(testOtherSeqs, seq)
		}
	}
	countMissing := func(seqs []int, addSeq int) int {
		n := 0
		for _, s := range seqs {
			if s < addSeq {
				n++
			}
		}
		return n
	}

	var res Table2Result
	for suffix, hostnames := range bySuffix {
		if hostnames == 0 {
			continue
		}
		addSeq, ok := p.addedSeq(suffix)
		if !ok {
			continue // implicit-rule suffix: no rule creates it
		}
		if addSeq == 0 {
			continue // present since the first version: never missing
		}
		row := Table2Row{
			Suffix:          suffix,
			Hostnames:       hostnames,
			AddedSeq:        addSeq,
			AgeDays:         p.H.AgeOfVersion(addSeq),
			Dependency:      countMissing(depSeqs, addSeq),
			FixedProduction: countMissing(prodSeqs, addSeq),
			FixedTestOther:  countMissing(testOtherSeqs, addSeq),
			Updated:         countMissing(updSeqs, addSeq),
		}
		if row.FixedProduction == 0 {
			continue
		}
		res.Rows = append(res.Rows, row)
		res.TotalETLDs++
		res.TotalHostnames += hostnames
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].Hostnames != res.Rows[j].Hostnames {
			return res.Rows[i].Hostnames > res.Rows[j].Hostnames
		}
		return res.Rows[i].Suffix < res.Rows[j].Suffix
	})
	return res
}

// Table3Row is one line of the appendix Table 3, with the paper's
// reported missing-hostname count alongside the value recomputed from
// the synthetic snapshot.
type Table3Row struct {
	Repo repos.Repository
	// MeasuredHostnames is the number of snapshot hostnames under
	// suffixes the repository's embedded list is missing.
	MeasuredHostnames int
	// MeasuredETLDs is the number of such suffixes.
	MeasuredETLDs int
}

// missingAfter computes, per version sequence, the snapshot hostnames
// and suffixes that belong to rules introduced strictly after that
// version — the quantity a project carrying that version misclassifies.
func (p *Pipeline) missingAfter() (hostsAfter, suffixesAfter []int) {
	bySuffix := p.hostsBySuffix()
	n := p.H.Len()

	hostsAt := make([]int, n+1)
	suffixesAt := make([]int, n+1)
	for suffix, hostnames := range bySuffix {
		addSeq, ok := p.addedSeq(suffix)
		if !ok || addSeq == 0 {
			continue
		}
		hostsAt[addSeq] += hostnames
		suffixesAt[addSeq]++
	}
	hostsAfter = make([]int, n+1)
	suffixesAfter = make([]int, n+1)
	for seq := n - 1; seq >= 0; seq-- {
		hostsAfter[seq] = hostsAfter[seq+1] + hostsAt[seq+1]
		suffixesAfter[seq] = suffixesAfter[seq+1] + suffixesAt[seq+1]
	}
	return hostsAfter, suffixesAfter
}

// HarmCurve returns the misclassified-hostname count as a function of
// list age in days — the bridge between update-strategy staleness and
// privacy harm used by the staleness simulator.
func (p *Pipeline) HarmCurve() func(ageDays int) int {
	hostsAfter, _ := p.missingAfter()
	return func(ageDays int) int {
		if ageDays < 0 {
			ageDays = 0
		}
		return hostsAfter[p.H.IndexForAge(ageDays)]
	}
}

// ProjectHarm computes Table 3: per fixed repository with a known list
// age, the hostnames misclassified because of rules added after its
// embedded version.
func (p *Pipeline) ProjectHarm(corpus []repos.Repository) []Table3Row {
	hostsAfter, suffixesAfter := p.missingAfter()

	var out []Table3Row
	for _, r := range repos.FixedWithAges(corpus) {
		seq := p.H.IndexForAge(r.ListAgeDays)
		out = append(out, Table3Row{
			Repo:              r,
			MeasuredHostnames: hostsAfter[seq],
			MeasuredETLDs:     suffixesAfter[seq],
		})
	}
	return out
}

// CategoryHarm aggregates the Table 2 population by IANA category:
// which kinds of suffixes (private platform domains vs ccTLD registry
// entries, …) drive the misclassification harm.
type CategoryHarm struct {
	Category  iana.Category
	ETLDs     int
	Hostnames int
}

// HarmByCategory breaks the misclassified-eTLD population down by the
// category of the rule that creates each suffix, using the corpus's
// fixed-production repositories as the reference population (as in
// Table 2).
func (p *Pipeline) HarmByCategory(corpus []repos.Repository, db *iana.DB) []CategoryHarm {
	res := p.MissingETLDs(corpus)
	latest := p.H.Latest()
	// Index rules by literal suffix for category lookup.
	bySuffix := make(map[string]psl.Rule, latest.Len())
	for _, r := range latest.Rules() {
		bySuffix[r.Suffix] = r
	}
	agg := make(map[iana.Category]*CategoryHarm)
	for _, row := range res.Rows {
		var cat iana.Category
		if r, ok := bySuffix[row.Suffix]; ok {
			cat = db.ClassifyRule(r)
		} else {
			// Wildcard-generated suffixes have no literal rule entry.
			cat = iana.CategoryPrivate
		}
		a := agg[cat]
		if a == nil {
			a = &CategoryHarm{Category: cat}
			agg[cat] = a
		}
		a.ETLDs++
		a.Hostnames += row.Hostnames
	}
	out := make([]CategoryHarm, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hostnames > out[j].Hostnames })
	return out
}

// AgeReport summarises Figure 3: list-age distributions per update
// strategy.
type AgeReport struct {
	Strategy string
	Ages     []int
	Median   float64
	ECDF     []stats.ECDFPoint
}

// ListAgeReport computes the Figure 3 distributions for fixed, updated,
// and all repositories with known ages.
func ListAgeReport(corpus []repos.Repository) []AgeReport {
	build := func(label string, rs []repos.Repository) AgeReport {
		ages := repos.KnownAges(rs)
		f := make([]float64, len(ages))
		for i, a := range ages {
			f[i] = float64(a)
		}
		return AgeReport{
			Strategy: label,
			Ages:     ages,
			Median:   stats.Median(f),
			ECDF:     stats.ECDF(f),
		}
	}
	return []AgeReport{
		build("all", corpus),
		build("fixed", repos.ByStrategy(corpus, repos.StrategyFixed)),
		build("updated", repos.ByStrategy(corpus, repos.StrategyUpdated)),
	}
}

// ScatterRow is one point of Figure 4: a fixed-production repository's
// list age against its commit recency, sized by stars.
type ScatterRow struct {
	Name            string
	ListAgeDays     int
	DaysSinceCommit int
	Stars           int
	Security        bool
}

// Scatter computes the Figure 4 point set.
func Scatter(corpus []repos.Repository) []ScatterRow {
	var out []ScatterRow
	for _, r := range repos.BySub(corpus, repos.SubProduction) {
		if !r.HasKnownAge() {
			continue
		}
		out = append(out, ScatterRow{
			Name:            r.Name,
			ListAgeDays:     r.ListAgeDays,
			DaysSinceCommit: r.LastCommitDays,
			Stars:           r.Stars,
			Security:        repos.IsSecurityFocused(r),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stars > out[j].Stars })
	return out
}

// SuffixAgeOfHost reports the age (in days) of the rule creating the
// host's suffix under the latest list, or -1 for implicit suffixes.
// Used by the examples to explain individual decisions.
func (p *Pipeline) SuffixAgeOfHost(host string) int {
	latest := p.H.Latest()
	suffix, _, err := latest.PublicSuffix(host)
	if err != nil {
		return -1
	}
	addSeq, ok := p.addedSeq(suffix)
	if !ok {
		return -1
	}
	return p.H.AgeOfVersion(addSeq)
}
