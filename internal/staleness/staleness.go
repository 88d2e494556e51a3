// Package staleness simulates how the update strategies of the paper's
// Table 1 taxonomy translate into effective list age — and, through the
// measured harm curve, into misclassified hostnames. It extends the
// paper's analysis: where the paper measures the ages projects *have*,
// the simulator predicts the ages a *policy* produces, quantifying how
// much privacy each strategy buys.
//
// The model is a day-granularity Monte Carlo: a project refreshes its
// effective list on strategy-specific events (releases, restarts,
// periodic timers), each attempt failing independently with a
// configurable probability, in which case the previous copy stays in
// effect — the fallback semantics of package fetch.
package staleness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// Kind is the update strategy being simulated.
type Kind uint8

const (
	// Fixed never updates.
	Fixed Kind = iota
	// Build refreshes the embedded copy at each release; users run the
	// latest release.
	Build
	// Restart attempts a network update at each restart, falling back
	// to the copy obtained at the last successful attempt.
	Restart
	// Periodic attempts a network update on a timer while running.
	Periodic
)

// String names the strategy.
func (k Kind) String() string {
	switch k {
	case Build:
		return "build"
	case Restart:
		return "restart"
	case Periodic:
		return "periodic"
	default:
		return "fixed"
	}
}

// Policy describes one project's update behaviour.
type Policy struct {
	// Name labels the policy in reports.
	Name string
	// Kind selects the mechanism.
	Kind Kind
	// IntervalDays is the event cadence: release interval for Build,
	// restart interval for Restart, timer for Periodic. Ignored for
	// Fixed.
	IntervalDays int
	// FailureProb is the probability an individual update attempt
	// fails (network trouble, moved URL, TLS issues, …).
	FailureProb float64
	// InitialAgeDays is the embedded copy's age when the simulation
	// starts (a project typically ships with a somewhat stale copy).
	InitialAgeDays int
}

// Config parameterises a simulation run.
type Config struct {
	// Seed drives the Monte Carlo; equal seeds reproduce exactly.
	Seed int64
	// HorizonDays is the simulated duration. Default 1825 (5 years).
	HorizonDays int
	// Trials is the number of Monte Carlo repetitions. Default 100.
	Trials int
}

func (c Config) withDefaults() Config {
	if c.HorizonDays == 0 {
		c.HorizonDays = 5 * 365
	}
	if c.Trials == 0 {
		c.Trials = 100
	}
	return c
}

// Result summarises the effective list age a policy produces, and the
// expected harm when a curve is supplied.
type Result struct {
	Policy Policy
	// MeanAgeDays and MedianAgeDays summarise the day-weighted
	// effective age distribution.
	MeanAgeDays   float64
	MedianAgeDays float64
	// P95AgeDays is its 95th percentile.
	P95AgeDays float64
	// MeanMissingHostnames is the day-averaged harm under the supplied
	// curve (0 when no curve was given).
	MeanMissingHostnames float64
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("%s: mean age %.0fd median %.0fd p95 %.0fd, mean missing hostnames %.0f",
		r.Policy.Name, r.MeanAgeDays, r.MedianAgeDays, r.P95AgeDays, r.MeanMissingHostnames)
}

// Simulate runs the Monte Carlo for one policy. harm may be nil.
func Simulate(cfg Config, p Policy, harm func(ageDays int) int) Result {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(p.Kind)<<32 ^ int64(p.IntervalDays)))

	ages := make([]float64, 0, cfg.HorizonDays*cfg.Trials)
	var harmSum float64
	for trial := 0; trial < cfg.Trials; trial++ {
		age := p.InitialAgeDays
		sinceEvent := 0
		for day := 0; day < cfg.HorizonDays; day++ {
			age++
			sinceEvent++
			if p.Kind != Fixed && p.IntervalDays > 0 && sinceEvent >= p.IntervalDays {
				sinceEvent = 0
				if rng.Float64() >= p.FailureProb {
					age = 0
				}
			}
			ages = append(ages, float64(age))
			if harm != nil {
				harmSum += float64(harm(age))
			}
		}
	}
	sort.Float64s(ages)
	n := len(ages)
	sum := 0.0
	for _, a := range ages {
		sum += a
	}
	res := Result{
		Policy:        p,
		MeanAgeDays:   sum / float64(n),
		MedianAgeDays: ages[n/2],
		P95AgeDays:    ages[n*95/100],
	}
	if harm != nil {
		res.MeanMissingHostnames = harmSum / float64(n)
	}
	return res
}

// DefaultPolicies are the Table 1 archetypes with plausible cadences:
// the paper's fixed projects (bundled copy, median 825 days old and
// ageing), build-updated projects releasing quarterly, user
// applications restarting weekly, server daemons restarting yearly,
// and a daily periodic updater — the recommended practice.
func DefaultPolicies() []Policy {
	return []Policy{
		{Name: "fixed (median project)", Kind: Fixed, InitialAgeDays: 825},
		{Name: "build, quarterly releases", Kind: Build, IntervalDays: 90, FailureProb: 0.05, InitialAgeDays: 90},
		{Name: "restart weekly (user app)", Kind: Restart, IntervalDays: 7, FailureProb: 0.05, InitialAgeDays: 180},
		{Name: "restart yearly (server)", Kind: Restart, IntervalDays: 365, FailureProb: 0.05, InitialAgeDays: 180},
		{Name: "periodic daily", Kind: Periodic, IntervalDays: 1, FailureProb: 0.05},
		{Name: "periodic daily, flaky net", Kind: Periodic, IntervalDays: 1, FailureProb: 0.5},
	}
}

// Compare simulates every policy under one configuration, fanned across
// min(GOMAXPROCS, len(policies)) goroutines. Each policy seeds its own
// rng from (Seed, Kind, IntervalDays) only, so results are bit-identical
// to a serial loop of Simulate calls whatever the scheduling; harm must
// be safe for concurrent calls (the pipeline's harm curve is an
// immutable table lookup).
func Compare(cfg Config, policies []Policy, harm func(ageDays int) int) []Result {
	workers := min(runtime.GOMAXPROCS(0), len(policies))
	out := make([]Result, len(policies))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = Simulate(cfg, policies[i], harm)
			}
		}()
	}
	for i := range policies {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
