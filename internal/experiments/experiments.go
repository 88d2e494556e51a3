// Package experiments assembles the full reproduction environment —
// history, repository corpus, snapshot, pipeline — and renders every
// table and figure of the paper. The pslharm command, the repository
// benchmarks, and the reproduction tests all share this code, so what
// gets printed, benchmarked, and asserted is one implementation.
package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/iana"
	"repro/internal/report"
	"repro/internal/repos"
	"repro/internal/staleness"
	"repro/internal/stats"
)

// Env is one fully-assembled reproduction environment.
type Env struct {
	Seed  int64
	Scale float64

	H      *history.History
	Corpus []repos.Repository
	Snap   *httparchive.Snapshot

	pipeOnce sync.Once
	pipe     *core.Pipeline
}

// New assembles an environment. Scale 1.0 is the reference
// configuration the EXPERIMENTS.md numbers were recorded at.
func New(seed int64, scale float64) *Env {
	h := history.Generate(history.Config{Seed: seed})
	return &Env{
		Seed:   seed,
		Scale:  scale,
		H:      h,
		Corpus: repos.Corpus(seed),
		Snap:   httparchive.Generate(httparchive.Config{Seed: seed, Scale: scale}, h),
	}
}

// NewWithCaches assembles an environment, loading the history and/or
// snapshot from binary caches written by pslgen when paths are
// non-empty; missing pieces are generated as in New.
func NewWithCaches(seed int64, scale float64, historyPath, snapshotPath string) (*Env, error) {
	var h *history.History
	if historyPath != "" {
		f, err := os.Open(historyPath)
		if err != nil {
			return nil, err
		}
		h, err = history.ReadHistory(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	} else {
		h = history.Generate(history.Config{Seed: seed})
	}
	var snap *httparchive.Snapshot
	if snapshotPath != "" {
		f, err := os.Open(snapshotPath)
		if err != nil {
			return nil, err
		}
		snap, err = httparchive.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	} else {
		snap = httparchive.Generate(httparchive.Config{Seed: seed, Scale: scale}, h)
	}
	return &Env{Seed: seed, Scale: scale, H: h, Corpus: repos.Corpus(seed), Snap: snap}, nil
}

// Pipeline returns the (lazily built) site-assignment pipeline.
func (e *Env) Pipeline() *core.Pipeline {
	e.pipeOnce.Do(func() { e.pipe = core.NewPipeline(e.H, e.Snap) })
	return e.pipe
}

// Fig2 renders the list growth and component mix over time.
func (e *Env) Fig2() string {
	series := e.H.GrowthSeries()
	var pts []report.SeriesPoint
	for _, g := range series {
		pts = append(pts, report.SeriesPoint{Date: g.Date, Value: float64(g.Total)})
	}
	out := report.Series("Figure 2: Public Suffix List size over time", pts, 16)
	final := series[len(series)-1]
	t := report.NewTable("Final component mix", "components", "rules", "share").AlignRight(1, 2)
	total := float64(final.Total)
	labels := []string{"1", "2", "3", "4+"}
	for i, n := range final.ByComponents {
		t.Row(labels[i], n, fmt.Sprintf("%.1f%%", 100*float64(n)/total))
	}
	return out + "\n" + t.String()
}

// Fig3 renders the embedded-list age distributions per update strategy.
func (e *Env) Fig3() string {
	var b strings.Builder
	t := report.NewTable("Figure 3: age of lists stored in projects (days before 2022-12-08)",
		"strategy", "repos", "median", "p25", "p75", "max").AlignRight(1, 2, 3, 4, 5)
	for _, rep := range core.ListAgeReport(e.Corpus) {
		ages := make([]float64, len(rep.Ages))
		for i, a := range rep.Ages {
			ages[i] = float64(a)
		}
		t.Row(rep.Strategy, len(rep.Ages),
			fmt.Sprintf("%.0f", rep.Median),
			fmt.Sprintf("%.0f", stats.Percentile(ages, 25)),
			fmt.Sprintf("%.0f", stats.Percentile(ages, 75)),
			fmt.Sprintf("%.0f", stats.Percentile(ages, 100)))
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig4 renders the popularity/staleness scatter of fixed-production
// projects.
func (e *Env) Fig4() string {
	t := report.NewTable("Figure 4: PSL age vs project activity (fixed+production)",
		"repository", "stars", "list age (d)", "last commit (d)", "security").AlignRight(1, 2, 3)
	for _, p := range core.Scatter(e.Corpus) {
		sec := ""
		if p.Security {
			sec = "yes"
		}
		t.Row(p.Name, p.Stars, p.ListAgeDays, p.DaysSinceCommit, sec)
	}
	return t.String()
}

// Fig5 renders the number of sites formed per list version.
func (e *Env) Fig5() string {
	series := e.Pipeline().SitesSeries()
	var pts []report.SeriesPoint
	for _, s := range series {
		pts = append(pts, report.SeriesPoint{Date: e.H.Meta(s.Seq).Date, Value: float64(s.Sites)})
	}
	out := report.Series("Figure 5: sites formed in the snapshot per PSL version", pts, 16)
	first, last := series[0], series[len(series)-1]
	out += fmt.Sprintf("first version: %d sites (mean %.2f hosts/site); latest: %d sites (mean %.2f); delta %+d\n",
		first.Sites, first.MeanSize, last.Sites, last.MeanSize, last.Sites-first.Sites)
	return out
}

// Fig6 renders the third-party request counts per list version.
func (e *Env) Fig6() string {
	series := e.Pipeline().ThirdPartySeries()
	var pts []report.SeriesPoint
	for seq, v := range series {
		pts = append(pts, report.SeriesPoint{Date: e.H.Meta(seq).Date, Value: float64(v)})
	}
	out := report.Series("Figure 6: requests classified third-party per PSL version", pts, 16)
	out += fmt.Sprintf("total requests in snapshot: %d\n", e.Snap.Requests)
	return out
}

// Fig7 renders the hostnames-in-different-site divergence series.
func (e *Env) Fig7() string {
	series := e.Pipeline().DivergenceSeries()
	var pts []report.SeriesPoint
	for seq, v := range series {
		pts = append(pts, report.SeriesPoint{Date: e.H.Meta(seq).Date, Value: float64(v)})
	}
	return report.Series("Figure 7: hostnames whose site differs vs the latest list", pts, 16)
}

// Tab1 renders the project taxonomy.
func (e *Env) Tab1() string {
	t := report.NewTable("Table 1: open-source projects using the PSL by usage type",
		"category", "projects", "share").AlignRight(1, 2)
	for _, row := range repos.Table1(e.Corpus) {
		label := row.Label
		if row.Indented {
			label = "  " + label
		}
		t.Row(label, row.Count, fmt.Sprintf("%.1f%%", row.Percent))
	}
	return t.String()
}

// Tab2 renders the largest misclassified eTLDs.
func (e *Env) Tab2() string {
	res := e.Pipeline().MissingETLDs(e.Corpus)
	t := report.NewTable("Table 2: largest eTLDs missing from fixed-production lists",
		"eTLD", "hostnames", "D", "Prd", "T/O", "U").AlignRight(1, 2, 3, 4, 5)
	for i, row := range res.Rows {
		if i >= 15 {
			break
		}
		t.Row(row.Suffix, row.Hostnames, row.Dependency, row.FixedProduction,
			row.FixedTestOther, row.Updated)
	}
	return t.String() + fmt.Sprintf("total: %d eTLDs affecting %d hostnames (paper: 1,313 / 50,750)\n",
		res.TotalETLDs, res.TotalHostnames)
}

// Tab3 renders the appendix project table with recomputed harm.
func (e *Env) Tab3() string {
	rows := e.Pipeline().ProjectHarm(e.Corpus)
	t := report.NewTable("Table 3: fixed-usage projects (paper values + measured)",
		"repository", "stars", "forks", "age (d)", "missing (paper)", "missing (measured)", "eTLDs").
		AlignRight(1, 2, 3, 4, 5, 6)
	for _, row := range rows {
		paper := "-"
		if row.Repo.MissingPaper >= 0 {
			paper = fmt.Sprintf("%d", row.Repo.MissingPaper)
		}
		t.Row(row.Repo.Name, row.Repo.Stars, row.Repo.Forks, row.Repo.ListAgeDays,
			paper, row.MeasuredHostnames, row.MeasuredETLDs)
	}
	return t.String()
}

// Misclassified renders the erroneously-first-party series: requests
// that are third-party under the latest list but treated as first-party
// under each older version — the paper's framing of the Figure 6 harm
// ("more requests are erroneously treated as first-party when using
// out-of-date lists").
func (e *Env) Misclassified() string {
	series := e.Pipeline().MisclassifiedFirstPartySeries()
	var pts []report.SeriesPoint
	for seq, v := range series {
		pts = append(pts, report.SeriesPoint{Date: e.H.Meta(seq).Date, Value: float64(v)})
	}
	out := report.Series("Requests erroneously treated as first-party, per PSL version", pts, 16)
	out += fmt.Sprintf("under the first version: %d requests wrongly share first-party state\n", series[0])
	return out
}

// Staleness renders the extension experiment: simulating the Table 1
// update strategies forward and pricing each in expected misclassified
// hostnames via the measured harm curve (see package staleness).
func (e *Env) Staleness() string {
	harm := e.Pipeline().HarmCurve()
	results := staleness.CompareParallel(
		staleness.Config{Seed: e.Seed, HorizonDays: 5 * 365, Trials: 50},
		staleness.DefaultPolicies(), harm, 0)
	t := report.NewTable("Extension: expected staleness and harm per update policy (5-year Monte Carlo)",
		"policy", "mean age (d)", "median (d)", "p95 (d)", "mean missing hostnames").
		AlignRight(1, 2, 3, 4)
	for _, r := range results {
		t.Row(r.Policy.Name,
			fmt.Sprintf("%.0f", r.MeanAgeDays),
			fmt.Sprintf("%.0f", r.MedianAgeDays),
			fmt.Sprintf("%.0f", r.P95AgeDays),
			fmt.Sprintf("%.0f", r.MeanMissingHostnames))
	}
	return t.String()
}

// Categories renders the Section 3 suffix-entry categorisation: the
// latest list's rules split into TLDs (generic / country-code /
// sponsored / infrastructure, per the IANA root zone database) and
// private domains.
func (e *Env) Categories() string {
	db := iana.Default()
	hist := db.CategoryHistogram(e.H.Latest())
	t := report.NewTable("Suffix entries by category (latest list, IANA root zone labels)",
		"category", "rules", "share").AlignRight(1, 2)
	order := []iana.Category{
		iana.CategoryGeneric, iana.CategoryCountryCode, iana.CategorySponsored,
		iana.CategoryInfrastructure, iana.CategoryPrivate, iana.CategoryUnknown,
	}
	total := float64(e.H.Latest().Len())
	for _, c := range order {
		if hist[c] == 0 {
			continue
		}
		t.Row(c.String(), hist[c], fmt.Sprintf("%.1f%%", 100*float64(hist[c])/total))
	}
	out := t.String()

	// Which categories drive the Table 2 harm.
	harm := e.Pipeline().HarmByCategory(e.Corpus, db)
	t2 := report.NewTable("Misclassified eTLDs by category (fixed-production reference)",
		"category", "eTLDs", "hostnames").AlignRight(1, 2)
	for _, h := range harm {
		t2.Row(h.Category.String(), h.ETLDs, h.Hostnames)
	}
	return out + "\n" + t2.String()
}

// All renders every artefact in paper order, plus the category
// breakdown.
func (e *Env) All() string {
	sections := []string{
		e.Fig2(), e.Tab1(), e.Fig3(), e.Fig4(),
		e.Fig5(), e.Fig6(), e.Fig7(), e.Tab2(), e.Tab3(),
		e.Categories(), e.Misclassified(), e.Staleness(),
	}
	return strings.Join(sections, "\n")
}

// Render dispatches one artefact by its id (fig2..fig7, tab1..tab3,
// all), returning false for unknown ids.
func (e *Env) Render(id string) (string, bool) {
	switch id {
	case "fig2":
		return e.Fig2(), true
	case "fig3":
		return e.Fig3(), true
	case "fig4":
		return e.Fig4(), true
	case "fig5":
		return e.Fig5(), true
	case "fig6":
		return e.Fig6(), true
	case "fig7":
		return e.Fig7(), true
	case "tab1":
		return e.Tab1(), true
	case "tab2":
		return e.Tab2(), true
	case "tab3":
		return e.Tab3(), true
	case "categories":
		return e.Categories(), true
	case "misclassified":
		return e.Misclassified(), true
	case "staleness":
		return e.Staleness(), true
	case "all":
		return e.All(), true
	}
	return "", false
}

// IDs lists the artefact identifiers in paper order.
func IDs() []string {
	return []string{"fig2", "tab1", "fig3", "fig4", "fig5", "fig6", "fig7", "tab2", "tab3"}
}

// ExtraIDs lists the extension artefacts beyond the paper's set.
func ExtraIDs() []string {
	return []string{"categories", "misclassified", "staleness"}
}

// Series exposes the raw point series behind a figure artefact, for
// SVG rendering. ok is false for table artefacts.
func (e *Env) Series(id string) (points []report.SeriesPoint, title, ylabel string, ok bool) {
	date := func(seq int) time.Time { return e.H.Meta(seq).Date }
	switch id {
	case "fig2":
		for _, g := range e.H.GrowthSeries() {
			points = append(points, report.SeriesPoint{Date: g.Date, Value: float64(g.Total)})
		}
		return points, "Figure 2: Public Suffix List size over time", "rules", true
	case "fig5":
		for _, s := range e.Pipeline().SitesSeries() {
			points = append(points, report.SeriesPoint{Date: date(s.Seq), Value: float64(s.Sites)})
		}
		return points, "Figure 5: sites formed per PSL version", "sites", true
	case "fig6":
		for seq, v := range e.Pipeline().ThirdPartySeries() {
			points = append(points, report.SeriesPoint{Date: date(seq), Value: float64(v)})
		}
		return points, "Figure 6: third-party requests per PSL version", "requests", true
	case "fig7":
		for seq, v := range e.Pipeline().DivergenceSeries() {
			points = append(points, report.SeriesPoint{Date: date(seq), Value: float64(v)})
		}
		return points, "Figure 7: hostnames in a different site vs latest", "hostnames", true
	case "misclassified":
		for seq, v := range e.Pipeline().MisclassifiedFirstPartySeries() {
			points = append(points, report.SeriesPoint{Date: date(seq), Value: float64(v)})
		}
		return points, "Requests erroneously treated as first-party", "requests", true
	}
	return nil, "", "", false
}
