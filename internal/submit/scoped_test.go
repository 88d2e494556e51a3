package submit

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dnssim"
	"repro/internal/domain"
	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/psl"
)

// fullScanRisk is the reference risk report: every population host
// scored under both lists, then the probe samples, exactly as the stage
// was specified before it learned to skip hosts no change can reach.
func fullScanRisk(cfg Config, old, next *psl.List, added, removed []psl.Rule) *RiskReport {
	r := &RiskReport{MaxFlipFraction: cfg.MaxFlipFraction, Population: len(cfg.Population.Hosts)}
	for _, h := range cfg.Population.Hosts {
		os, ns := old.SiteOrSelf(h), next.SiteOrSelf(h)
		if os == ns {
			continue
		}
		r.SiteFlips++
		if domain.CountLabels(ns) < domain.CountLabels(os) {
			r.ScopeWidened++
		} else {
			r.ScopeNarrowed++
		}
		if len(r.SampleFlips) < maxSampleFlips {
			r.SampleFlips = append(r.SampleFlips, fmt.Sprintf("%s: %s -> %s", h, os, ns))
		}
	}
	if r.Population > 0 {
		r.FlipFraction = float64(r.SiteFlips) / float64(r.Population)
	}
	for _, rule := range append(append([]psl.Rule(nil), added...), removed...) {
		for _, h := range probesFor(rule) {
			os, ns := old.SiteOrSelf(h), next.SiteOrSelf(h)
			if os != ns && len(r.SampleFlips) < maxSampleFlips {
				r.SampleFlips = append(r.SampleFlips, fmt.Sprintf("probe %s: %s -> %s", h, os, ns))
			}
		}
	}
	return r
}

// TestRiskScopedMatchesFullScan holds the scoped risk stage to the full
// population scan on the generated scale-0.05 population plus
// non-canonical hosts, for every rule shape a change can add or remove.
func TestRiskScopedMatchesFullScan(t *testing.T) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	head := h.Latest()
	pop := httparchive.Generate(httparchive.Config{Seed: history.DefaultSeed, Scale: 0.05}, h)

	// Anchor the changes on the registrable domain with the most
	// population hosts below it, so every case flips real hosts.
	under := make(map[string]int)
	for _, host := range pop.Hosts {
		if s := head.SiteOrSelf(host); s != host {
			under[s]++
		}
	}
	site, most := "", 0
	for s, n := range under {
		if n > most || (n == most && s < site) {
			site, most = s, n
		}
	}
	if most < 2 {
		t.Fatalf("population has no site with two hosts below it")
	}
	var tenant string // one label directly below site, for the exception
	for _, host := range pop.Hosts {
		if strings.HasSuffix(host, "."+site) {
			labels := strings.Split(strings.TrimSuffix(host, "."+site), ".")
			tenant = labels[len(labels)-1] + "." + site
			break
		}
	}
	// Non-canonical spellings of hosts under the changed suffixes, and
	// one host that does not normalise at all.
	bad := "a..b." + site
	if _, err := psl.Normalize(bad); err == nil {
		t.Fatalf("%q normalises; want a host that does not", bad)
	}
	hosts := append(append([]string(nil), pop.Hosts...),
		"WWW."+strings.ToUpper(tenant), "bücher."+site, "shop."+site+".", bad)
	cfg := Config{Resolver: dnssim.NewZone(), Population: &httparchive.Snapshot{Hosts: hosts}}
	p, err := New(dist.NewOrigin(history.Generate(history.Config{Versions: 12})), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = p.cfg

	rule := func(s string) psl.Rule {
		r, err := psl.ParseRule(s, psl.SectionPrivate)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	withWild := head.WithRules(rule("*." + site))
	// A multi-label rule of the head list with population hosts below it.
	var existing psl.Rule
	for _, r := range head.Rules() {
		if r.Wildcard || r.Exception || r.Labels() < 2 {
			continue
		}
		for _, host := range pop.Hosts {
			if domain.HasSuffix(host, r.Suffix) {
				existing = r
				break
			}
		}
		if existing.Suffix != "" {
			break
		}
	}
	if existing.Suffix == "" {
		t.Fatal("no multi-label rule with population hosts below it")
	}

	cases := []struct {
		name           string
		old            *psl.List
		added, removed []psl.Rule
	}{
		{"add private rule under a TLD", head, []psl.Rule{rule(site)}, nil},
		{"add new TLD", head, []psl.Rule{rule("newtld-scoped")}, nil},
		{"add wildcard", head, []psl.Rule{rule("*." + site)}, nil},
		{"add exception under wildcard", withWild, []psl.Rule{rule("!" + tenant)}, nil},
		{"remove rule with hosts below it", head, nil, []psl.Rule{existing}},
		{"remove wildcard", withWild, nil, []psl.Rule{rule("*." + site)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			next := c.old.WithoutRules(c.removed...).WithRules(c.added...)
			got, _ := p.runRisk(c.old, next, c.added, c.removed)
			want := fullScanRisk(cfg, c.old, next, c.added, c.removed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scoped report\n%+v\nfull scan\n%+v", got, want)
			}
			if c.name != "add new TLD" && want.SiteFlips == 0 {
				t.Fatalf("case flips no population host; it tests nothing: %+v", want)
			}
		})
	}
}

// headOf returns the list the next Process run would validate against.
func headOf(p *Pipeline) *psl.List {
	p.processMu.Lock()
	defer p.processMu.Unlock()
	return p.head()
}

// sameRules fails unless the two lists hold the same rules with the same
// sections.
func sameRules(t *testing.T, got, want *psl.List) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("head list has %d rules, history tip %d; rule sets differ", got.Len(), want.Len())
	}
	sections := make(map[string]psl.Section, want.Len())
	for _, r := range want.Rules() {
		sections[r.String()] = r.Section
	}
	for _, r := range got.Rules() {
		if sections[r.String()] != r.Section {
			t.Fatalf("rule %q in section %s, history tip has %s", r.String(), r.Section, sections[r.String()])
		}
	}
}

// TestProcessSeesForeignPublish checks the reused head list never hides
// a version another writer published straight to the origin.
func TestProcessSeesForeignPublish(t *testing.T) {
	rig := newRig(t, Config{})
	submit := func(req Request) *Submission {
		t.Helper()
		rig.authorize(t, req)
		s, err := rig.p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	if s := submit(addReq("a.foreign-publish.test")); s.State != StatePublished {
		t.Fatalf("add A: state %s; verdicts %+v", s.State, s.Verdicts)
	}
	sameRules(t, headOf(rig.p), rig.h.Latest())

	b, _ := psl.ParseRule("b.foreign-publish.test", psl.SectionPrivate)
	if _, err := rig.o.Publish(time.Now(), []psl.Rule{b}, nil); err != nil {
		t.Fatal(err)
	}
	sameRules(t, headOf(rig.p), rig.h.Latest())

	s := submit(addReq("b.foreign-publish.test"))
	if s.State != StateRejected || s.RejectedStage != StageLint ||
		!strings.Contains(strings.Join(s.Verdicts[0].Findings, "\n"), "already in the list") {
		t.Fatalf("re-adding B: state %s stage %q; verdicts %+v", s.State, s.RejectedStage, s.Verdicts)
	}

	s = submit(Request{Changes: []Change{{Op: "remove", Rule: "b.foreign-publish.test", Section: "private"}}})
	if !s.Verdicts[0].Passed {
		t.Fatalf("removing B failed lint: %+v", s.Verdicts[0])
	}
	if s.State != StatePublished {
		t.Fatalf("removing B: state %s; verdicts %+v", s.State, s.Verdicts)
	}
	sameRules(t, headOf(rig.p), rig.h.Latest())
}
