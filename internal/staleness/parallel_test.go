package staleness

import (
	"reflect"
	"runtime"
	"testing"
)

// TestCompareEqualsSerialSimulate: per-policy rng seeding makes
// Compare's fan-out bit-identical to a serial loop of Simulate calls,
// result for result, whatever the worker count.
func TestCompareEqualsSerialSimulate(t *testing.T) {
	cfg := Config{Seed: 7, HorizonDays: 200, Trials: 10}
	harm := func(ageDays int) int { return ageDays / 3 }
	var want []Result
	for _, p := range DefaultPolicies() {
		want = append(want, Simulate(cfg, p, harm))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 16} {
		runtime.GOMAXPROCS(procs)
		got := Compare(cfg, DefaultPolicies(), harm)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: Compare diverges from serial Simulate\n got: %+v\nwant: %+v", procs, got, want)
		}
	}
}
