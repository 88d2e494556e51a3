package loadgen

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/serve"
)

// TestRunRecordsLatency drives a real service and checks every lookup
// lands in the client-side latency histogram with sane quantile
// ordering.
func TestRunRecordsLatency(t *testing.T) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 8})
	svc := serve.NewFromHistory(h, h.Len()-1, serve.Options{})
	hosts := Hostnames(svc.Current().List, 64, 1)

	res := Run(Config{
		Clients:           4,
		RequestsPerClient: 200,
		Seed:              1,
		Hosts:             hosts,
		Lookup:            svc.Lookup,
	})

	if res.Latency == nil || res.Latency.Count() != uint64(res.Lookups) {
		t.Fatalf("latency count %d != lookups %d", res.Latency.Count(), res.Lookups)
	}
	p50, p99, max := res.Latency.Quantile(0.5), res.Latency.Quantile(0.99), res.Latency.Max()
	if p50 <= 0 || p50 > p99 || p99 > 5*time.Second || max < p50 {
		t.Errorf("implausible latency quantiles: p50=%v p99=%v max=%v", p50, p99, max)
	}
}

// TestWriteJSONSummary pins the machine-readable stdout contract: the
// document round-trips, field names are stable, and derived figures
// agree with the raw result.
func TestWriteJSONSummary(t *testing.T) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 8})
	svc := serve.NewFromHistory(h, h.Len()-1, serve.Options{})
	hosts := Hostnames(svc.Current().List, 32, 2)
	res := Run(Config{
		Clients:           2,
		RequestsPerClient: 50,
		Seed:              2,
		Hosts:             hosts,
		Lookup:            svc.Lookup,
	})

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"lookups", "errors", "mismatches", "swaps", "elapsed_seconds", "lookups_per_sec", "latency"} {
		if _, ok := got[key]; !ok {
			t.Errorf("summary missing %q:\n%s", key, buf.String())
		}
	}
	lat, ok := got["latency"].(map[string]any)
	if !ok {
		t.Fatalf("latency is %T, want object", got["latency"])
	}
	for _, key := range []string{"p50_seconds", "p90_seconds", "p99_seconds", "max_seconds", "mean_seconds"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("latency summary missing %q:\n%s", key, buf.String())
		}
	}

	s := res.Summary()
	if s.Lookups != res.Lookups || s.Swaps != res.Swaps {
		t.Errorf("summary counts diverge: %+v vs %+v", s, res)
	}
	if s.ElapsedSeconds <= 0 || s.LookupsPerSec <= 0 {
		t.Errorf("summary rates not positive: %+v", s)
	}
	if s.Latency.P50Seconds > s.Latency.P99Seconds || s.Latency.P99Seconds > s.Latency.MaxSeconds {
		t.Errorf("quantiles out of order: %+v", s.Latency)
	}
}
