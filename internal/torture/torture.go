// Package torture is the crash-consistency harness: it enumerates every
// failpoint a workload passes through, then re-runs the workload once
// per (site, hit, mode) with that exact operation failing — as an
// injected error, and as a simulated power cut — and asserts the
// component's recovery invariants afterward.
//
// The loop for one scenario:
//
//  1. Enumerate. Run the workload once, clean, over a fresh
//     faultfs.MemFS with failpoint observation on. Every site the
//     workload touched (filtered to the scenario's prefixes) comes back
//     with its hit count.
//  2. Torture. For each site, each hit index up to MaxAfter, and each
//     mode (err, crash): fresh MemFS, fresh component, arm the single
//     spec "<site>=<mode>(1,after=<k>)", run the workload. A crash-mode
//     panic is recovered and converted into MemFS.Crash() — the
//     post-power-cut disk, with seeded coin flips for every
//     un-fsynced entry and torn tails for unsynced content.
//  3. Recover. With everything disarmed, the scenario's Recover
//     function rebuilds the component from the surviving filesystem and
//     asserts its invariants: reloads never panic, corrupt files are
//     quarantined rather than served, replicas resume patch-only or
//     fall back to a verified full sync, mid-check submissions
//     re-enqueue as pending.
//
// Determinism is the contract that makes a failure worth finding: every
// case carries the exact failpoint spec and filesystem seed that
// produced it, and the recorded fault schedule is byte-identical across
// runs of the same scenario — a CI failure IS its reproduction recipe.
package torture

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/failpoint"
	"repro/internal/faultfs"
)

// Rig is one built instance of a scenario's component under test.
type Rig struct {
	// Workload drives the component through its durable writes. It runs
	// with exactly one failpoint armed; an error return is an expected
	// outcome (the component refusing degraded work), a panic other
	// than failpoint.Crash is a harness failure.
	Workload func() error
	// Recover runs after the fault (and, in crash mode, after the
	// simulated power cut) with all failpoints disarmed. It rebuilds
	// the component from the filesystem and returns an error if any
	// recovery invariant does not hold.
	Recover func() error
	// Close releases scenario resources (test servers). Optional.
	Close func()
}

// Scenario describes one component's torture setup.
type Scenario struct {
	// Name labels the scenario in reports and re-run recipes.
	Name string
	// Seed drives every per-case filesystem seed and fault schedule.
	Seed int64
	// Prefixes filters which failpoint sites this scenario tortures
	// (e.g. "dist.state", "submit.persist").
	Prefixes []string
	// Build constructs a fresh component over the given filesystem.
	// Called once for enumeration and once per torture case.
	Build func(m *faultfs.MemFS) (*Rig, error)
}

// Options tune a torture run.
type Options struct {
	// MaxAfter bounds how many hit indices per site are tortured
	// (crashing at hit 0, 1, ... MaxAfter-1). Sites hit more often than
	// that contribute their count to Report.SkippedHits so the bound is
	// visible, never silent. Default 3.
	MaxAfter int
}

// modes are the fault kinds every (site, hit) is tortured with.
var modes = []string{"err", "crash"}

func (o Options) withDefaults() Options {
	if o.MaxAfter <= 0 {
		o.MaxAfter = 3
	}
	return o
}

// Case is one torture execution: one site, one hit index, one mode.
type Case struct {
	Scenario string
	Site     string
	Mode     string
	Hit      int
	// Spec is the exact failpoint spec that was armed — with FSSeed,
	// the verbatim re-run recipe.
	Spec   string
	FSSeed int64
	// Crashed reports that the workload hit the armed crash and the
	// filesystem went through a simulated power cut.
	Crashed bool
	// WorkloadErr is the workload's error return, if any (expected
	// under injection; recorded for the schedule, not a failure).
	WorkloadErr string
	// Schedule is the armed-decision transcript for this case.
	Schedule string
	// Err is the recovery-invariant violation, nil when the case
	// passed.
	Err error
}

// String renders the re-run recipe for a case.
func (c Case) String() string {
	status := "ok"
	if c.Err != nil {
		status = "FAIL: " + c.Err.Error()
	}
	return fmt.Sprintf("scenario=%s %s %s", c.Scenario, failpoint.Recipe(c.FSSeed, c.Spec), status)
}

// SiteHits is one enumerated failpoint site and how often the clean
// workload hit it.
type SiteHits struct {
	Site string
	Hits int
}

// Report is the outcome of one scenario's torture run.
type Report struct {
	Scenario string
	Sites    []SiteHits
	Cases    []Case
	// SkippedHits counts hit indices beyond Options.MaxAfter that were
	// not tortured — the explicit cost of bounding the run.
	SkippedHits int
}

// Failures returns the cases whose recovery invariants did not hold.
func (r *Report) Failures() []Case {
	var out []Case
	for _, c := range r.Cases {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// ScheduleDigest concatenates every case's spec and fault schedule in
// execution order — the byte-comparable determinism witness.
func (r *Report) ScheduleDigest() string {
	var b strings.Builder
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "== %s seed=%d crashed=%v werr=%q\n%s", c.Spec, c.FSSeed, c.Crashed, c.WorkloadErr, c.Schedule)
	}
	return b.String()
}

// matchesPrefix reports whether site belongs to the scenario.
func matchesPrefix(site string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(site, p+".") || site == p {
			return true
		}
	}
	return false
}

// caseSeed derives a deterministic per-case seed from the scenario
// seed, site name, mode, and hit index.
func caseSeed(base int64, site, mode string, hit int) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(site))
	_, _ = h.Write([]byte{'|'})
	_, _ = h.Write([]byte(mode))
	return base + int64(h.Sum64()&0x3fffffff) + int64(hit)*7919
}

// Run tortures one scenario and reports every case. The returned error
// covers harness-level problems (a clean run that fails, a Build that
// errors); invariant violations land in Report.Cases[i].Err so callers
// can print every failing recipe, not just the first.
func Run(s Scenario, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{Scenario: s.Name}

	// Phase 1: enumerate the sites a clean run passes through.
	failpoint.DisarmAll()
	baseline := failpoint.HitCounts()
	m := faultfs.NewMemFS(s.Seed)
	rig, err := s.Build(m)
	if err != nil {
		return nil, fmt.Errorf("torture %s: build: %w", s.Name, err)
	}
	failpoint.SetObserve(true)
	werr := rig.Workload()
	failpoint.SetObserve(false)
	if werr == nil {
		werr = recoverClean(rig)
		if werr != nil {
			werr = fmt.Errorf("clean recovery failed: %w", werr)
		}
	} else {
		werr = fmt.Errorf("clean workload failed: %w", werr)
	}
	if rig.Close != nil {
		rig.Close()
	}
	if werr != nil {
		return nil, fmt.Errorf("torture %s: %w", s.Name, werr)
	}
	for site, hits := range failpoint.HitCounts() {
		delta := int(hits - baseline[site])
		if delta > 0 && matchesPrefix(site, s.Prefixes) {
			rep.Sites = append(rep.Sites, SiteHits{Site: site, Hits: delta})
		}
	}
	sort.Slice(rep.Sites, func(i, j int) bool { return rep.Sites[i].Site < rep.Sites[j].Site })
	if len(rep.Sites) == 0 {
		return nil, fmt.Errorf("torture %s: workload hit no failpoints under %v", s.Name, s.Prefixes)
	}

	// Phase 2 + 3: torture each (site, hit, mode), then check recovery.
	for _, sh := range rep.Sites {
		hits := sh.Hits
		if hits > opts.MaxAfter {
			rep.SkippedHits += hits - opts.MaxAfter
			hits = opts.MaxAfter
		}
		for k := 0; k < hits; k++ {
			for _, mode := range modes {
				rep.Cases = append(rep.Cases, runCase(s, sh.Site, mode, k))
			}
		}
	}
	return rep.finish()
}

// finish normalises the report (placeholder for future aggregation).
func (r *Report) finish() (*Report, error) { return r, nil }

// recoverClean checks that a scenario's Recover passes with no fault at
// all — otherwise every torture failure would be noise.
func recoverClean(rig *Rig) error {
	if rig.Recover == nil {
		return fmt.Errorf("scenario has no Recover")
	}
	return rig.Recover()
}

// runCase executes one torture case end to end.
func runCase(s Scenario, site, mode string, hit int) (c Case) {
	c = Case{
		Scenario: s.Name,
		Site:     site,
		Mode:     mode,
		Hit:      hit,
		Spec:     fmt.Sprintf("%s=%s(1,after=%d)", site, mode, hit),
		FSSeed:   caseSeed(s.Seed, site, mode, hit),
	}
	defer failpoint.DisarmAll()

	m := faultfs.NewMemFS(c.FSSeed)
	rig, err := s.Build(m)
	if err != nil {
		c.Err = fmt.Errorf("build: %w", err)
		return c
	}
	if rig.Close != nil {
		defer rig.Close()
	}

	failpoint.StartTrace()
	if err := failpoint.Arm(c.Spec, c.FSSeed); err != nil {
		failpoint.StopTrace()
		c.Err = fmt.Errorf("arm: %w", err)
		return c
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(failpoint.Crash); !ok {
					panic(r) // not ours: surface it
				}
				c.Crashed = true
			}
		}()
		if err := rig.Workload(); err != nil {
			c.WorkloadErr = err.Error()
		}
	}()
	failpoint.DisarmAll()
	c.Schedule = failpoint.StopTrace()

	if c.Crashed {
		m.Crash()
	}
	if err := rig.Recover(); err != nil {
		c.Err = err
	}
	return c
}
