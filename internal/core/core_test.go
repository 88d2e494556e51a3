package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/iana"
	"repro/internal/repos"
)

// Shared fixtures: generated once, read-only across tests.
var (
	testHistory  = history.Generate(history.Config{Seed: history.DefaultSeed})
	testSnapshot = httparchive.Generate(httparchive.Config{Seed: 1, Scale: 0.03}, testHistory)
	testPipeline = NewPipeline(testHistory, testSnapshot)
	testCorpus   = repos.Corpus(history.DefaultSeed)
)

func seqAt(t testing.TB, y int, m time.Month) int {
	t.Helper()
	seq := testHistory.IndexAtDate(time.Date(y, m, 1, 0, 0, 0, 0, time.UTC))
	if seq < 0 {
		t.Fatalf("no version at %d-%d", y, m)
	}
	return seq
}

// fullSamples are the versions the from-scratch oracles recompute.
func fullSamples(t testing.TB) []int {
	return []int{0, 1, seqAt(t, 2010, 6), seqAt(t, 2012, 7), seqAt(t, 2016, 1), testHistory.Len() - 1}
}

// TestIncrementalMatchesFull proves the changepoint pipeline equals the
// brute-force recomputation on sampled versions, for both the site
// census (Fig 5) and the third-party classification (Fig 6).
func TestIncrementalMatchesFull(t *testing.T) {
	sites := testPipeline.SitesSeries()
	third := testPipeline.ThirdPartySeries()
	pairs := testPipeline.PairsView()
	for _, seq := range fullSamples(t) {
		l := testHistory.ListAt(seq)
		wantSites, wantMean := SitesAtVersionFull(l, testSnapshot.Hosts)
		if sites[seq].Sites != wantSites {
			t.Errorf("v%d: incremental sites %d != full %d", seq, sites[seq].Sites, wantSites)
		}
		if d := sites[seq].MeanSize - wantMean; d > 1e-9 || d < -1e-9 {
			t.Errorf("v%d: mean size %v != %v", seq, sites[seq].MeanSize, wantMean)
		}
		if got, want := third[seq], ThirdPartyAtVersionFull(l, pairs); got != want {
			t.Errorf("v%d: incremental third-party %d != full %d", seq, got, want)
		}
	}
}

// TestDivergenceMatchesFull proves Figure 7 against from-scratch
// matching: at every sampled version, the divergence count is the
// number of hosts whose site under that version differs from their
// site under the latest one.
func TestDivergenceMatchesFull(t *testing.T) {
	div := testPipeline.DivergenceSeries()
	latest := testHistory.Latest()
	final := make([]string, len(testSnapshot.Hosts))
	for i, h := range testSnapshot.Hosts {
		final[i] = latest.SiteOrSelf(h)
	}
	for _, seq := range fullSamples(t) {
		l := testHistory.ListAt(seq)
		want := 0
		for i, h := range testSnapshot.Hosts {
			if l.SiteOrSelf(h) != final[i] {
				want++
			}
		}
		if div[seq] != want {
			t.Errorf("v%d: incremental divergence %d != full %d", seq, div[seq], want)
		}
	}
}

// TestTable2CountsMatchPublicSuffix proves the per-suffix host counts
// behind Tables 2 and 3, which the pipeline takes from the suffix-label
// counts its build recorded, against matching every host under the
// latest list.
func TestTable2CountsMatchPublicSuffix(t *testing.T) {
	latest := testHistory.Latest()
	want := make(map[string]int)
	for _, h := range testSnapshot.Hosts {
		suffix, _, err := latest.PublicSuffix(h)
		if err != nil {
			t.Fatalf("host %q: %v", h, err)
		}
		want[suffix]++
	}
	got := testPipeline.hostsBySuffix()
	if len(got) != len(want) {
		t.Errorf("pipeline groups hosts under %d suffixes, full matching under %d", len(got), len(want))
	}
	for suffix, n := range want {
		if got[suffix] != n {
			t.Errorf("hosts under %s: pipeline %d, full matching %d", suffix, got[suffix], n)
		}
	}
}

// TestNewPipelineAllocsFlat guards the flat layout: building the
// pipeline must not allocate per host.
func TestNewPipelineAllocsFlat(t *testing.T) {
	limit := float64(len(testSnapshot.Hosts) / 10)
	allocs := testing.AllocsPerRun(2, func() { NewPipeline(testHistory, testSnapshot) })
	if allocs >= limit {
		t.Errorf("NewPipeline over %d hosts made %.0f allocations, want < %.0f",
			len(testSnapshot.Hosts), allocs, limit)
	}
}

// TestPipelineWorkersAgree proves the sharded build independent of its
// worker count: every count yields the same step functions, the same
// site per step, no site interned twice, and the same Figures 5-7.
func TestPipelineWorkersAgree(t *testing.T) {
	ref := newPipeline(testHistory, testSnapshot, 1)
	refSites, refThird, refDiv := ref.SitesSeries(), ref.ThirdPartySeries(), ref.DivergenceSeries()
	for _, workers := range []int{1, 2, 3, 8} {
		p := newPipeline(testHistory, testSnapshot, workers)
		if !slices.Equal(p.off, ref.off) || !slices.Equal(p.seqs, ref.seqs) || !slices.Equal(p.finalSL, ref.finalSL) {
			t.Fatalf("%d workers: step functions differ from the 1-worker build", workers)
		}
		for j := range p.site {
			if got, want := p.siteNames[p.site[j]], ref.siteNames[ref.site[j]]; got != want {
				t.Fatalf("%d workers: step %d has site %q, 1 worker %q", workers, j, got, want)
			}
		}
		seen := make(map[string]bool, len(p.siteNames))
		for _, name := range p.siteNames {
			if seen[name] {
				t.Fatalf("%d workers: site %q interned twice", workers, name)
			}
			seen[name] = true
		}
		if !slices.Equal(p.SitesSeries(), refSites) {
			t.Errorf("%d workers: Figure 5 differs", workers)
		}
		if !slices.Equal(p.ThirdPartySeries(), refThird) {
			t.Errorf("%d workers: Figure 6 differs", workers)
		}
		if !slices.Equal(p.DivergenceSeries(), refDiv) {
			t.Errorf("%d workers: Figure 7 differs", workers)
		}
	}
}

// TestPipelineIDsRepeat: two builds on the same worker count assign the
// same site ids.
func TestPipelineIDsRepeat(t *testing.T) {
	a := newPipeline(testHistory, testSnapshot, 3)
	b := newPipeline(testHistory, testSnapshot, 3)
	if !slices.Equal(a.site, b.site) || !slices.Equal(a.siteNames, b.siteNames) {
		t.Error("two 3-worker builds assigned different site ids")
	}
}

// TestSiteTableCollision drives the 64-bit collision path: different
// sites under one hash get distinct ids, and a repeated site its first.
func TestSiteTableCollision(t *testing.T) {
	st := newSiteTable(make([]string, 0, 4))
	const h = 42
	a, b, c := st.intern(h, "a.example"), st.intern(h, "b.example"), st.intern(h, "c.example")
	if a == b || b == c || a == c {
		t.Fatalf("colliding sites share ids: %d %d %d", a, b, c)
	}
	for site, want := range map[string]int32{"a.example": a, "b.example": b, "c.example": c} {
		if got := st.intern(h, site); got != want {
			t.Errorf("%s re-interned as %d, first id %d", site, got, want)
		}
		if st.names[want] != site {
			t.Errorf("id %d names %q, want %q", want, st.names[want], site)
		}
	}
	if d := st.intern(h+1, "a.example.org"); d != 3 || len(st.names) != 4 {
		t.Errorf("fresh hash got id %d with %d names, want 3 and 4", d, len(st.names))
	}
}

// TestFig5Basics checks the scale-independent Figure 5 properties: the
// latest list forms more, finer-grained sites than the first. The full
// shape (flat early, 2013-2016 boom, late plateau) depends on the
// reference-scale populations and is asserted in the repository-root
// repro test.
func TestFig5Basics(t *testing.T) {
	series := testPipeline.SitesSeries()
	s2007 := series[0].Sites
	sLast := series[len(series)-1].Sites
	if sLast <= s2007 {
		t.Fatalf("latest list forms %d sites, first %d: no growth", sLast, s2007)
	}
	// Mean site size shrinks as boundaries become finer.
	if series[len(series)-1].MeanSize >= series[0].MeanSize {
		t.Errorf("mean site size did not shrink: %f -> %f",
			series[0].MeanSize, series[len(series)-1].MeanSize)
	}
	// Sites × mean size always recovers the host count.
	for _, seq := range []int{0, len(series) / 2, len(series) - 1} {
		pt := series[seq]
		if got := float64(pt.Sites) * pt.MeanSize; int(got+0.5) != len(testSnapshot.Hosts) {
			t.Errorf("v%d: sites*meanSize = %v, want %d hosts", seq, got, len(testSnapshot.Hosts))
		}
	}
}

// TestFig6Shape pins Figure 6's shape: a drop across the wildcard
// restructuring era, then a steady rise to a maximum under recent lists.
func TestFig6Shape(t *testing.T) {
	third := testPipeline.ThirdPartySeries()
	first := third[0]
	trough := third[seqAt(t, 2013, 7)]
	mid := third[seqAt(t, 2016, 1)]
	last := third[len(third)-1]
	if trough >= first {
		t.Errorf("no early drop: first %d, 2013 %d", first, trough)
	}
	if last <= mid || last <= trough {
		t.Errorf("no late rise: 2013 %d, 2016 %d, last %d", trough, mid, last)
	}
}

// TestFig7Basics checks the scale-independent Figure 7 properties:
// divergence from the latest list is zero at the latest version and
// large at the first. The pre-2017-dominance shape is asserted at
// reference scale in the repository-root repro test.
func TestFig7Basics(t *testing.T) {
	div := testPipeline.DivergenceSeries()
	if div[len(div)-1] != 0 {
		t.Fatalf("divergence at latest version = %d, want 0", div[len(div)-1])
	}
	if div[0] == 0 {
		t.Fatal("no divergence at the first version")
	}
	if div[0] <= div[seqAt(t, 2020, 1)] {
		t.Errorf("divergence should decay: first %d vs 2020 %d", div[0], div[seqAt(t, 2020, 1)])
	}
}

// TestTable2TopRows pins the Table 2 head: the top two eTLDs and their
// exact hostname and project counts from the paper.
func TestTable2TopRows(t *testing.T) {
	res := testPipeline.MissingETLDs(testCorpus)
	if len(res.Rows) < 15 {
		t.Fatalf("only %d Table 2 rows", len(res.Rows))
	}
	if res.Rows[0].Suffix != "myshopify.com" || res.Rows[0].Hostnames != 7848 {
		t.Errorf("top row = %s (%d), want myshopify.com (7848)", res.Rows[0].Suffix, res.Rows[0].Hostnames)
	}
	if res.Rows[1].Suffix != "digitaloceanspaces.com" || res.Rows[1].Hostnames != 3359 {
		t.Errorf("second row = %s (%d), want digitaloceanspaces.com (3359)", res.Rows[1].Suffix, res.Rows[1].Hostnames)
	}
}

// TestTable2ProjectColumns pins every project-count column of the
// paper's Table 2 for all 15 printed eTLDs.
func TestTable2ProjectColumns(t *testing.T) {
	res := testPipeline.MissingETLDs(testCorpus)
	byName := make(map[string]Table2Row, len(res.Rows))
	for _, row := range res.Rows {
		byName[row.Suffix] = row
	}
	want := []struct {
		suffix               string
		d, prd, testOther, u int
	}{
		{"myshopify.com", 44, 23, 7, 13},
		{"digitaloceanspaces.com", 46, 27, 12, 14},
		{"smushcdn.com", 44, 23, 7, 13},
		{"r.appspot.com", 34, 15, 3, 7},
		{"sp.gov.br", 13, 2, 0, 2},
		{"altervista.org", 32, 14, 3, 7},
		{"readthedocs.io", 23, 13, 2, 4},
		{"netlify.app", 35, 15, 5, 9},
		{"mg.gov.br", 13, 2, 0, 2},
		{"lpages.co", 23, 13, 2, 4},
		{"pr.gov.br", 13, 2, 0, 2},
		{"web.app", 28, 13, 2, 5},
		{"carrd.co", 28, 13, 2, 5},
		{"rs.gov.br", 13, 2, 0, 2},
		{"sc.gov.br", 13, 2, 0, 2},
	}
	for _, w := range want {
		row, ok := byName[w.suffix]
		if !ok {
			t.Errorf("Table 2 missing %s", w.suffix)
			continue
		}
		if row.Dependency != w.d || row.FixedProduction != w.prd ||
			row.FixedTestOther != w.testOther || row.Updated != w.u {
			t.Errorf("%s = D%d/Prd%d/TO%d/U%d, want D%d/Prd%d/TO%d/U%d",
				w.suffix, row.Dependency, row.FixedProduction, row.FixedTestOther, row.Updated,
				w.d, w.prd, w.testOther, w.u)
		}
	}
}

// TestProjectHarm checks Table 3 recomputation: monotone in list age
// and anchored by the Table 2 head for the oldest lists.
func TestProjectHarm(t *testing.T) {
	rows := testPipeline.ProjectHarm(testCorpus)
	if len(rows) != 47 {
		t.Fatalf("Table 3 rows = %d, want 47", len(rows))
	}
	byName := make(map[string]Table3Row)
	for _, r := range rows {
		byName[r.Repo.Name] = r
	}
	bw := byName["bitwarden/server"]
	fido := byName["Yubico/python-fido2"]
	if bw.MeasuredHostnames <= fido.MeasuredHostnames {
		t.Errorf("bitwarden (age 1596) misses %d hosts, fido2 (age 188) %d: not monotone",
			bw.MeasuredHostnames, fido.MeasuredHostnames)
	}
	// The Table 2 suffixes younger than bitwarden's list alone account
	// for 25,571 hostnames; bitwarden must miss at least those.
	if bw.MeasuredHostnames < 25571 {
		t.Errorf("bitwarden misses %d hostnames, want >= 25571 (Table 2 head)", bw.MeasuredHostnames)
	}
	if fido.MeasuredHostnames > 20 {
		t.Errorf("fido2 (188-day list) misses %d hostnames, want ~1", fido.MeasuredHostnames)
	}
	// Same age ⇒ same measured harm.
	if a, b := byName["bitwarden/server"], byName["bitwarden/mobile"]; a.MeasuredHostnames != b.MeasuredHostnames {
		t.Errorf("equal-age repos measured differently: %d vs %d", a.MeasuredHostnames, b.MeasuredHostnames)
	}
}

// TestHarmByCategory checks the category aggregation conserves the
// Table 2 totals and that private platform domains dominate the harm
// (the paper's qualitative point about digitaloceanspaces.com et al.).
func TestHarmByCategory(t *testing.T) {
	db := iana.Default()
	harm := testPipeline.HarmByCategory(testCorpus, db)
	res := testPipeline.MissingETLDs(testCorpus)
	etlds, hosts := 0, 0
	for _, h := range harm {
		etlds += h.ETLDs
		hosts += h.Hostnames
	}
	if etlds != res.TotalETLDs || hosts != res.TotalHostnames {
		t.Errorf("category aggregation %d/%d != totals %d/%d",
			etlds, hosts, res.TotalETLDs, res.TotalHostnames)
	}
	if len(harm) == 0 || harm[0].Category != iana.CategoryPrivate {
		t.Errorf("top harm category = %v, want private", harm)
	}
}

// TestSiteSizeDistribution checks mass conservation and the expected
// coarsening: older versions form fewer, larger sites.
func TestSiteSizeDistribution(t *testing.T) {
	for _, seq := range []int{0, testHistory.Len() - 1} {
		dist := testPipeline.SiteSizeDistribution(seq)
		hosts, sites := 0, 0
		for size, n := range dist {
			if size <= 0 || n <= 0 {
				t.Fatalf("v%d: nonsense bucket %d:%d", seq, size, n)
			}
			hosts += size * n
			sites += n
		}
		if hosts != len(testSnapshot.Hosts) {
			t.Errorf("v%d: distribution covers %d hosts, want %d", seq, hosts, len(testSnapshot.Hosts))
		}
		series := testPipeline.SitesSeries()
		if sites != series[seq].Sites {
			t.Errorf("v%d: distribution has %d sites, series says %d", seq, sites, series[seq].Sites)
		}
	}
	// The largest site under the first version exceeds the largest
	// under the latest (platform suffixes split it apart).
	maxSize := func(dist map[int]int) int {
		m := 0
		for size := range dist {
			if size > m {
				m = size
			}
		}
		return m
	}
	first := testPipeline.SiteSizeDistribution(0)
	last := testPipeline.SiteSizeDistribution(testHistory.Len() - 1)
	if maxSize(first) <= maxSize(last) {
		t.Errorf("largest site: first %d, latest %d — expected coarser early grouping",
			maxSize(first), maxSize(last))
	}
}

// TestMisclassifiedFirstParty checks the erroneously-first-party
// series: zero at the latest version (nothing is erroneous against
// itself), positive under old versions, and bounded by the total
// divergence of the two classifications.
func TestMisclassifiedFirstParty(t *testing.T) {
	mis := testPipeline.MisclassifiedFirstPartySeries()
	third := testPipeline.ThirdPartySeries()
	if mis[len(mis)-1] != 0 {
		t.Fatalf("misclassified at latest = %d, want 0", mis[len(mis)-1])
	}
	if mis[0] == 0 {
		t.Fatal("no misclassification under the first version")
	}
	// Identity: third(latest) - third(v) = misclassifiedFirst(v) -
	// misclassifiedThird(v); in particular third(v) + mis(v) >=
	// third(latest) for every v.
	last := third[len(third)-1]
	for seq := 0; seq < len(mis); seq += 97 {
		if third[seq]+mis[seq] < last {
			t.Errorf("v%d: third %d + mis %d < third(latest) %d", seq, third[seq], mis[seq], last)
		}
	}
}

// TestAgeReportMedians re-checks the Figure 3 medians through the core
// API.
func TestAgeReportMedians(t *testing.T) {
	reports := ListAgeReport(testCorpus)
	want := map[string]float64{"all": 871, "fixed": 825, "updated": 915}
	for _, rep := range reports {
		if rep.Median != want[rep.Strategy] {
			t.Errorf("%s median = %v, want %v", rep.Strategy, rep.Median, want[rep.Strategy])
		}
		if len(rep.ECDF) == 0 || rep.ECDF[len(rep.ECDF)-1].Fraction != 1 {
			t.Errorf("%s ECDF malformed", rep.Strategy)
		}
	}
}

// TestScatter checks the Figure 4 point set.
func TestScatter(t *testing.T) {
	pts := Scatter(testCorpus)
	if len(pts) != 33 {
		t.Fatalf("scatter points = %d, want 33 dated production repos", len(pts))
	}
	if pts[0].Name != "bitwarden/server" || pts[0].Stars != 10959 {
		t.Errorf("largest point = %+v, want bitwarden/server", pts[0])
	}
	if !pts[0].Security {
		t.Error("bitwarden not flagged security-focused")
	}
}

func TestSiteAtAndFinalSite(t *testing.T) {
	// A myshopify host: site is the user subdomain under the latest
	// list, myshopify.com under the first (rule added ~700 days ago).
	hi := -1
	for i, h := range testSnapshot.Hosts {
		if h == "assets.myshopify.com" {
			hi = i
			break
		}
	}
	if hi < 0 {
		t.Fatal("assets.myshopify.com not in snapshot")
	}
	if got := testPipeline.SiteAt(hi, 0); got != "myshopify.com" {
		t.Errorf("site under first list = %q, want myshopify.com", got)
	}
	if got := testPipeline.FinalSite(hi); got != "assets.myshopify.com" {
		t.Errorf("site under latest list = %q, want assets.myshopify.com", got)
	}
}

func TestSuffixAgeOfHost(t *testing.T) {
	age := testPipeline.SuffixAgeOfHost("assets.myshopify.com")
	if age < 650 || age > 750 {
		t.Errorf("suffix age of myshopify host = %d, want ~700", age)
	}
}

// TestEmptySnapshot hardens the pipeline against degenerate input.
func TestEmptySnapshot(t *testing.T) {
	empty := &httparchive.Snapshot{}
	p := NewPipeline(testHistory, empty)
	sites := p.SitesSeries()
	if len(sites) != testHistory.Len() {
		t.Fatalf("series length %d", len(sites))
	}
	if sites[0].Sites != 0 {
		t.Errorf("empty snapshot forms %d sites", sites[0].Sites)
	}
	if got := p.ThirdPartySeries(); got[len(got)-1] != 0 {
		t.Error("third-party series nonzero on empty snapshot")
	}
	if got := p.DivergenceSeries(); got[0] != 0 {
		t.Error("divergence nonzero on empty snapshot")
	}
	res := p.MissingETLDs(testCorpus)
	if res.TotalETLDs != 0 || res.TotalHostnames != 0 {
		t.Errorf("empty snapshot has harm: %+v", res)
	}
}

// TestSingleHostSnapshot checks the smallest non-trivial input.
func TestSingleHostSnapshot(t *testing.T) {
	snap := &httparchive.Snapshot{Hosts: []string{"alice.myshopify.com"}}
	p := NewPipeline(testHistory, snap)
	sites := p.SitesSeries()
	for _, seq := range []int{0, len(sites) - 1} {
		if sites[seq].Sites != 1 {
			t.Errorf("v%d: sites = %d, want 1", seq, sites[seq].Sites)
		}
	}
	// The single host's site changes when myshopify.com is added, so
	// divergence is 1 early and 0 late.
	div := p.DivergenceSeries()
	if div[0] != 1 || div[len(div)-1] != 0 {
		t.Errorf("divergence = %d..%d, want 1..0", div[0], div[len(div)-1])
	}
}

// TestMissingETLDsEmptyCorpus: with no repositories, no suffix has a
// fixed-production project missing it.
func TestMissingETLDsEmptyCorpus(t *testing.T) {
	res := testPipeline.MissingETLDs(nil)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d with empty corpus", len(res.Rows))
	}
}

// --- benches: ablation of incremental vs full recomputation ----------

func BenchmarkPipelineIncremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewPipeline(testHistory, testSnapshot)
		p.SitesSeries()
	}
}

func BenchmarkPipelineFullSampled(b *testing.B) {
	// Full recomputation at just 16 of the 1,142 versions — already far
	// more work than the complete incremental sweep.
	for i := 0; i < b.N; i++ {
		for s := 0; s < 16; s++ {
			seq := s * (testHistory.Len() - 1) / 15
			l := testHistory.ListAt(seq)
			SitesAtVersionFull(l, testSnapshot.Hosts)
		}
	}
}

// fullScale is the scale-1.0 snapshot (~399k hosts), generated on first
// use so that only BenchmarkPipelineBuild pays for it.
var fullScale = sync.OnceValue(func() *httparchive.Snapshot {
	return httparchive.Generate(httparchive.Config{Seed: 1, Scale: 1.0}, testHistory)
})

// BenchmarkPipelineBuild measures NewPipeline over the scale-1.0
// snapshot on GOMAXPROCS workers; run it with -cpu 1,2 to see the
// sharded build's scaling.
func BenchmarkPipelineBuild(b *testing.B) {
	snap := fullScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPipeline(testHistory, snap)
	}
	b.ReportMetric(float64(len(snap.Hosts))*float64(b.N)/b.Elapsed().Seconds(), "hosts/s")
}
