package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestInputDigests checks that a seed fixes the generated inputs: the
// same seed gives the same digest, another seed a different one.
func TestInputDigests(t *testing.T) {
	a1, err := newLookupInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := newLookupInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newLookupInputs(2)
	if err != nil {
		t.Fatal(err)
	}
	if a1.digest != a2.digest || a1.digest == b.digest {
		t.Errorf("lookup digests: seed 1 %s and %s, seed 2 %s", a1.digest, a2.digest, b.digest)
	}
	if len(a1.hosts) != lookupPool {
		t.Errorf("lookup pool has %d hosts, want %d", len(a1.hosts), lookupPool)
	}

	p1, err := newPublishInputs(a1.head, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := newPublishInputs(a1.head, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	q, err := newPublishInputs(a1.head, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p1.digest != p2.digest || p1.digest == q.digest {
		t.Errorf("publish digests: seed 1 %s and %s, seed 2 %s", p1.digest, p2.digest, q.digest)
	}

	if e1, e2 := newAnalysisEnv(1), newAnalysisEnv(2); e1.digest == e2.digest {
		t.Errorf("analysis inputs for seeds 1 and 2 share digest %s", e1.digest)
	} else if again := newAnalysisEnv(1); again.digest != e1.digest {
		t.Errorf("analysis digest for seed 1: %s then %s", e1.digest, again.digest)
	}
}

// TestAnswerMatches checks the response comparison accepts exactly the
// expected answer and its cached form.
func TestAnswerMatches(t *testing.T) {
	exp := []byte(`{"query":"a.b.com","etld":"com","seq":3}`)
	for got, want := range map[string]bool{
		`{"query":"a.b.com","etld":"com","seq":3}`:               true,
		`{"query":"a.b.com","etld":"com","seq":3,"cached":true}`: true,
		`{"query":"a.b.com","etld":"b.com","seq":3}`:             false,
		`{"query":"a.b.com","etld":"com","seq":4,"cached":true}`: false,
		`{"query":"a.b.com","etld":"com","seq":3,"cached":tru}`:  false,
	} {
		if answerMatches([]byte(got), exp) != want {
			t.Errorf("answerMatches(%s) = %v", got, !want)
		}
	}
}

// TestBenchmarkFileMatchesOutput checks BENCHMARK.json names exactly the
// metrics the benchmark prints.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bench.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("end_to_end has %d metrics, the benchmark prints %d", len(bench.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if bench.EndToEnd[i].Name != m.name || bench.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, printed %s %s", i, bench.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer has %d metrics, the traced run prints %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if bench.PerLayer[i].Name != m.name || bench.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, printed %s %s", i, bench.PerLayer[i], m.name, m.unit)
		}
	}
}
