// Command pslfleet runs the in-process replication fleet simulator of
// internal/fleet and emits its JSON report on stdout: an origin
// publishing snapshot deltas, an optional relay tier re-serving and
// compacting them, and up to thousands of edge replicas polling with
// skewed jitter while churn and network faults run at the configured
// tiers. Everything derives from -seed, and every fault from one
// failpoint spec the report echoes as fault_spec, so a run is
// replayable.
//
// With -compare it runs the configured topology AND its single-tier
// equivalent (same seed and edges, no relays) and reports both, plus
// the origin-egress ratio — the number the relay tier exists to shrink.
// With -check the exit status becomes a verdict: non-zero unless the
// fleet converged with zero unverified swaps (and, under -compare,
// strictly lower origin egress than the naive topology), and a failed
// verdict names the `seed=N spec="..."` recipe that re-arms its faults.
//
// Flags mirror fleet.Config:
//
//	-seed N              master seed (default 1)
//	-edges N             edge replicas (default 100)
//	-relays N            relay-tier width; 0 = single tier (default 0)
//	-retain N            relay snapshot window (default 128)
//	-versions N          history length (default 160)
//	-start-head N        initially published version (default 0 = auto)
//	-head-step N         versions published per advance (default 2)
//	-advance-every D     head publish cadence (default duration/10)
//	-duration D          churn-and-chaos phase length (default 2s)
//	-base-poll D         median edge poll interval (default 50ms)
//	-poll-skew F         lognormal sigma of per-edge intervals (default 0.5)
//	-churn F             fraction of edges killed mid-run (default 0)
//	-rejoin-delay D      victim replacement delay (default duration/8)
//	-chaos-rate F        fault rate on -chaos-tiers, shared by all six
//	                     HTTP actions of the fleet.origin / fleet.relay
//	                     failpoint sites (default 0)
//	-chaos-tiers LIST    comma-separated: origin,relay (default none)
//	-max-hop N           max patch span per hop (default 16)
//	-sample-every D      lag sampler cadence (default duration/10)
//	-converge-timeout D  post-run convergence window (default 30s)
//	-failpoints SPEC     failpoint spec armed for the run: err-mode storage
//	                     faults (e.g. 'dist.state.sync=err(0.4,errno=EIO)')
//	                     or HTTP actions on fleet.origin / fleet.relay
//	-edge-state          give every edge an in-memory state dir so the
//	                     dist.state.* sites fire under churn
//	-compare             also run the single-tier baseline
//	-check               exit non-zero unless the run passes
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/failpoint"
	"repro/internal/fleet"
)

// config is the validated flag set plus the run modes.
type config struct {
	fleet   fleet.Config
	compare bool
	check   bool
}

// parseFlags parses and validates the command line; every invalid
// invocation fails here, before any simulation starts.
func parseFlags(args []string) (config, error) {
	var cfg config
	var chaosTiers string
	fs := flag.NewFlagSet("pslfleet", flag.ContinueOnError)
	fs.Int64Var(&cfg.fleet.Seed, "seed", 1, "master seed for the whole run")
	fs.IntVar(&cfg.fleet.Edges, "edges", 100, "edge replica population")
	fs.IntVar(&cfg.fleet.Relays, "relays", 0, "relay-tier width (0 = single tier)")
	fs.IntVar(&cfg.fleet.Retain, "retain", 0, "relay snapshot window (0 = default)")
	fs.IntVar(&cfg.fleet.Versions, "versions", 0, "history length (0 = default)")
	fs.IntVar(&cfg.fleet.StartHead, "start-head", 0, "initially published version (0 = auto)")
	fs.IntVar(&cfg.fleet.HeadStep, "head-step", 0, "versions published per advance (0 = default)")
	fs.DurationVar(&cfg.fleet.AdvanceEvery, "advance-every", 0, "head publish cadence (0 = duration/10)")
	fs.DurationVar(&cfg.fleet.Duration, "duration", 0, "churn-and-chaos phase length (0 = default 2s)")
	fs.DurationVar(&cfg.fleet.BasePoll, "base-poll", 0, "median edge poll interval (0 = default 50ms)")
	fs.Float64Var(&cfg.fleet.PollSkew, "poll-skew", 0.5, "lognormal sigma of per-edge poll intervals")
	fs.Float64Var(&cfg.fleet.ChurnFraction, "churn", 0, "fraction of edges killed mid-run")
	fs.DurationVar(&cfg.fleet.RejoinDelay, "rejoin-delay", 0, "victim replacement delay (0 = duration/8)")
	fs.Float64Var(&cfg.fleet.ChaosRate, "chaos-rate", 0, "fault-injection rate on -chaos-tiers")
	fs.StringVar(&chaosTiers, "chaos-tiers", "", "comma-separated tiers to fault: origin,relay")
	fs.IntVar(&cfg.fleet.MaxHop, "max-hop", 0, "max patch span per hop (0 = default 16)")
	fs.DurationVar(&cfg.fleet.SampleEvery, "sample-every", 0, "lag sampler cadence (0 = duration/10)")
	fs.DurationVar(&cfg.fleet.ConvergeTimeout, "converge-timeout", 0, "post-run convergence window (0 = default 30s)")
	fs.StringVar(&cfg.fleet.Failpoints, "failpoints", "", "failpoint spec armed for the run (err-mode storage faults, HTTP actions on fleet.origin/fleet.relay)")
	fs.BoolVar(&cfg.fleet.EdgeState, "edge-state", false, "give every edge an in-memory state dir (fires dist.state.* sites)")
	fs.BoolVar(&cfg.compare, "compare", false, "also run the single-tier baseline with the same seed")
	fs.BoolVar(&cfg.check, "check", false, "exit non-zero unless the run passes its invariants")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.fleet.Edges < 1 {
		return config{}, fmt.Errorf("-edges %d must be at least 1", cfg.fleet.Edges)
	}
	if cfg.fleet.Relays < 0 {
		return config{}, fmt.Errorf("-relays %d is negative", cfg.fleet.Relays)
	}
	if cfg.fleet.Versions != 0 && cfg.fleet.Versions < 2 {
		return config{}, fmt.Errorf("-versions %d must be at least 2 (or 0 for the default)", cfg.fleet.Versions)
	}
	if cfg.fleet.ChurnFraction < 0 || cfg.fleet.ChurnFraction > 1 {
		return config{}, fmt.Errorf("-churn %v out of range [0, 1]", cfg.fleet.ChurnFraction)
	}
	if cfg.fleet.ChaosRate < 0 || cfg.fleet.ChaosRate > 1 {
		return config{}, fmt.Errorf("-chaos-rate %v out of range [0, 1]", cfg.fleet.ChaosRate)
	}
	if cfg.fleet.PollSkew < 0 {
		return config{}, fmt.Errorf("-poll-skew %v is negative", cfg.fleet.PollSkew)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"-advance-every", cfg.fleet.AdvanceEvery},
		{"-duration", cfg.fleet.Duration},
		{"-base-poll", cfg.fleet.BasePoll},
		{"-rejoin-delay", cfg.fleet.RejoinDelay},
		{"-sample-every", cfg.fleet.SampleEvery},
		{"-converge-timeout", cfg.fleet.ConvergeTimeout},
	} {
		if d.v < 0 {
			return config{}, fmt.Errorf("%s %v is negative", d.name, d.v)
		}
	}
	if chaosTiers != "" {
		for _, tier := range strings.Split(chaosTiers, ",") {
			tier = strings.TrimSpace(tier)
			switch tier {
			case fleet.TierOrigin, fleet.TierRelay:
				cfg.fleet.ChaosTiers = append(cfg.fleet.ChaosTiers, tier)
			default:
				return config{}, fmt.Errorf("unknown -chaos-tiers entry %q (want origin or relay)", tier)
			}
		}
	}
	if cfg.fleet.ChaosRate > 0 && len(cfg.fleet.ChaosTiers) == 0 {
		return config{}, fmt.Errorf("-chaos-rate %v without -chaos-tiers faults nothing", cfg.fleet.ChaosRate)
	}
	spec, err := cfg.fleet.FaultSpec()
	if err != nil {
		return config{}, err
	}
	crash, err := failpoint.SpecHasCrash(spec)
	if err != nil {
		return config{}, fmt.Errorf("-failpoints: %v", err)
	}
	if crash {
		return config{}, fmt.Errorf("-failpoints %q uses crash mode, which would kill the simulator; use err mode", cfg.fleet.Failpoints)
	}
	return cfg, nil
}

// comparison is the -compare output document.
type comparison struct {
	Tiered *fleet.Report `json:"tiered"`
	Naive  *fleet.Report `json:"naive"`
	// OriginEgressRatio is tiered origin bytes over naive origin bytes;
	// the relay tier earns its keep iff this is < 1.
	OriginEgressRatio float64 `json:"origin_egress_ratio"`
}

// run executes the configured simulation and writes the JSON report.
// The returned error carries the -check verdict.
func run(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	if cfg.compare {
		tiered, naive, err := fleet.RunComparison(ctx, cfg.fleet)
		if err != nil {
			return err
		}
		cmp := comparison{Tiered: tiered, Naive: naive}
		if naive.Egress.OriginBytes > 0 {
			cmp.OriginEgressRatio = float64(tiered.Egress.OriginBytes) / float64(naive.Egress.OriginBytes)
		}
		if err := writeJSON(stdout, cmp); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "pslfleet: tiered origin egress %d B vs naive %d B (ratio %.3f), convergence p99 %.2fs vs %.2fs\n",
			tiered.Egress.OriginBytes, naive.Egress.OriginBytes, cmp.OriginEgressRatio,
			tiered.Convergence.P99, naive.Convergence.P99)
		if cfg.check {
			if err := checkReport("tiered", tiered); err != nil {
				return err
			}
			if err := checkReport("naive", naive); err != nil {
				return err
			}
			if cfg.fleet.Relays > 0 && tiered.Egress.OriginBytes >= naive.Egress.OriginBytes {
				return fmt.Errorf("check failed: tiered origin egress %d B not below naive %d B",
					tiered.Egress.OriginBytes, naive.Egress.OriginBytes)
			}
		}
		return nil
	}

	rep, err := fleet.Run(ctx, cfg.fleet)
	if err != nil {
		return err
	}
	if err := writeJSON(stdout, rep); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "pslfleet: %d edges, %d relays: converged=%v, origin egress %d B, convergence p50 %.2fs p99 %.2fs\n",
		cfg.fleet.Edges, cfg.fleet.Relays, rep.Converged, rep.Egress.OriginBytes,
		rep.Convergence.P50, rep.Convergence.P99)
	if cfg.check {
		return checkReport("run", rep)
	}
	return nil
}

// checkReport enforces the invariants -check promises: full convergence
// and a clean fingerprint chain. A failure ends with the run's fault
// recipe.
func checkReport(name string, rep *fleet.Report) error {
	recipe := failpoint.Recipe(rep.Config.Seed, rep.FaultSpec)
	if !rep.Converged {
		return fmt.Errorf("check failed: %s did not converge (%d/%d edges at head %d); re-run %s",
			name, rep.Convergence.Converged, rep.Convergence.Live, rep.FinalHead, recipe)
	}
	if rep.UnverifiedSwaps != 0 {
		return fmt.Errorf("check failed: %s had %d unverified swaps; re-run %s", name, rep.UnverifiedSwaps, recipe)
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		log.Fatalf("pslfleet: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout, os.Stderr); err != nil {
		log.Fatalf("pslfleet: %v", err)
	}
}
