package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// TestParseFlagsErrors pins the contract that invalid invocations fail
// before any simulation starts.
func TestParseFlagsErrors(t *testing.T) {
	bad := [][]string{
		{"-no-such-flag"},
		{"stray-positional"},
		{"-edges", "0"},
		{"-relays", "-1"},
		{"-versions", "1"},
		{"-churn", "1.5"},
		{"-churn", "-0.1"},
		{"-chaos-rate", "2"},
		{"-poll-skew", "-1"},
		{"-duration", "-1s"},
		{"-base-poll", "-5ms"},
		{"-chaos-tiers", "cloud"},                     // unknown tier
		{"-chaos-rate", "0.5"},                        // rate without tiers
		{"-chaos-rate", "0.5", "-chaos-tiers", ""},    // still no tiers
		{"-failpoints", "dist.state.sync=explode(1)"}, // bad action kind
		{"-failpoints", "dist.state.sync=crash(0.5)"}, // crash would kill the process
		{"-failpoints", "dist.state.sync=err(1.5)"},   // probability out of range
		{"-failpoints", "fleet.relay=err(0.5)"},       // storage action on an HTTP site
		{"-failpoints", "dist.state.sync=reset(0.5)"}, // HTTP action on a storage site
		{"-chaos-rate", "0.1", "-chaos-tiers", "origin", "-failpoints", "fleet.origin=status(0.1)"}, // site armed twice
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted invalid flags", args)
		}
	}

	cfg, err := parseFlags([]string{
		"-seed", "9", "-edges", "40", "-relays", "2",
		"-chaos-rate", "0.2", "-chaos-tiers", "origin, relay",
		"-failpoints", "dist.state.sync=err(0.3,errno=EIO)", "-edge-state",
		"-compare", "-check",
	})
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if cfg.fleet.Seed != 9 || cfg.fleet.Edges != 40 || cfg.fleet.Relays != 2 ||
		!cfg.compare || !cfg.check {
		t.Errorf("parsed config %+v", cfg)
	}
	if cfg.fleet.Failpoints != "dist.state.sync=err(0.3,errno=EIO)" || !cfg.fleet.EdgeState {
		t.Errorf("failpoint flags not parsed: %+v", cfg.fleet)
	}
	if len(cfg.fleet.ChaosTiers) != 2 || cfg.fleet.ChaosTiers[0] != fleet.TierOrigin || cfg.fleet.ChaosTiers[1] != fleet.TierRelay {
		t.Errorf("chaos tiers %v", cfg.fleet.ChaosTiers)
	}
}

// smallArgs is a fast two-tier run for the command-level tests.
func smallArgs(extra ...string) []string {
	return append([]string{
		"-seed", "11", "-edges", "8", "-relays", "1",
		"-versions", "40", "-duration", "400ms",
		"-base-poll", "25ms", "-advance-every", "80ms",
	}, extra...)
}

// TestRunEmitsReport runs a small fleet through run() and checks stdout
// is one decodable fleet.Report with the invariants intact.
func TestRunEmitsReport(t *testing.T) {
	cfg, err := parseFlags(smallArgs("-check"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), cfg, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	var rep fleet.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, out.String())
	}
	if !rep.Converged || rep.UnverifiedSwaps != 0 || rep.Tiers != 2 {
		t.Errorf("report converged=%v unverified=%d tiers=%d", rep.Converged, rep.UnverifiedSwaps, rep.Tiers)
	}
	if !strings.Contains(errOut.String(), "converged=true") {
		t.Errorf("stderr summary: %s", errOut.String())
	}
}

// TestRunWithStorageFaults drives the command end to end with
// -edge-state and an err-mode failpoint spec: -check must still pass
// (storage faults never cost convergence or verification) and the
// report must show the faults firing.
func TestRunWithStorageFaults(t *testing.T) {
	cfg, err := parseFlags(smallArgs("-check", "-edge-state",
		"-failpoints", "dist.state.sync=err(0.5,errno=EIO)"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), cfg, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	var rep fleet.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v", err)
	}
	if !rep.Converged || rep.UnverifiedSwaps != 0 {
		t.Errorf("report converged=%v unverified=%d", rep.Converged, rep.UnverifiedSwaps)
	}
	if rep.FailpointTriggers["dist.state.sync"] == 0 {
		t.Errorf("armed site never fired: %v", rep.FailpointTriggers)
	}
	if rep.Edges.PersistErrors == 0 {
		t.Error("no persistence failure recorded under an armed sync fault")
	}
}

// TestRunCompare checks -compare emits both topologies plus the egress
// ratio, and that -check enforces the strict origin-egress win.
func TestRunCompare(t *testing.T) {
	cfg, err := parseFlags(smallArgs("-compare", "-check"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), cfg, &out, &errOut); err != nil {
		t.Fatalf("run -compare -check: %v\nstderr: %s", err, errOut.String())
	}
	var cmp comparison
	if err := json.Unmarshal(out.Bytes(), &cmp); err != nil {
		t.Fatalf("stdout is not a comparison: %v", err)
	}
	if cmp.Tiered == nil || cmp.Naive == nil {
		t.Fatal("comparison missing a topology")
	}
	if cmp.Tiered.Tiers != 2 || cmp.Naive.Tiers != 1 {
		t.Errorf("tiers %d / %d, want 2 / 1", cmp.Tiered.Tiers, cmp.Naive.Tiers)
	}
	if cmp.OriginEgressRatio <= 0 || cmp.OriginEgressRatio >= 1 {
		t.Errorf("origin egress ratio %v, want in (0, 1)", cmp.OriginEgressRatio)
	}
}

// TestCheckReportFails covers the verdict paths run() exits non-zero
// through.
func TestCheckReportFails(t *testing.T) {
	if err := checkReport("x", &fleet.Report{Converged: false}); err == nil {
		t.Error("unconverged report passed")
	}
	if err := checkReport("x", &fleet.Report{Converged: true, UnverifiedSwaps: 3}); err == nil {
		t.Error("unverified swaps passed")
	}
	if err := checkReport("x", &fleet.Report{Converged: true}); err != nil {
		t.Errorf("clean report failed: %v", err)
	}
	// A failed verdict carries the one-line recipe of the run's faults.
	rep := &fleet.Report{Config: fleet.Config{Seed: 7}, FaultSpec: "fleet.relay=status(0.1)", Converged: true, UnverifiedSwaps: 1}
	if err := checkReport("x", rep); err == nil || !strings.Contains(err.Error(), `seed=7 spec="fleet.relay=status(0.1)"`) {
		t.Errorf("failed verdict %v does not carry the recipe", err)
	}
}
