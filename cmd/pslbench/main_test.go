package main

import (
	"encoding/json"
	"testing"
)

// TestBenchRulesShape pins the benchmark list to the same shape the
// internal/psl ablations use, so pslbench numbers stay comparable.
func TestBenchRulesShape(t *testing.T) {
	l := benchRules(9000)
	// NewList dedupes the random generator's collisions, so the exact
	// count sits just under the requested size.
	if l.Len() < 8900 || l.Len() > 9000 {
		t.Fatalf("list has %d rules, want ~9000", l.Len())
	}
	for _, name := range []string{"com", "co.uk", "uk"} {
		if got := l.Matcher().Match("probe." + name); got.Implicit {
			t.Fatalf("anchor rule %q missing from benchmark list", name)
		}
	}
}

// TestOutputEncodes checks the JSON document shape without running the
// (slow) measurements.
func TestOutputEncodes(t *testing.T) {
	doc := output{
		GoVersion:  "go0.0",
		GOMAXPROCS: 1,
		Rules:      3,
		Matchers:   map[string]matcherResult{"packed": {NsPerOp: 17.5}},
		Scaling:    &scalingResult{HTTPBatchAdvantage: 2},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back output
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Matchers["packed"].NsPerOp != 17.5 || back.Scaling.HTTPBatchAdvantage != 2 {
		t.Fatalf("round-trip mangled the document: %+v", back)
	}
}
