package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smallConfig runs a workload for a few hundred statements on a small
// table.
func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		rows: 2000, setups: 1, warmup: 200 * time.Millisecond, dataRoot: t.TempDir(),
	}
}

// TestEveryMetricEmitted runs each workload untraced and traced (the ones
// BENCHMARK.json lists and durable-mix, which it does not), and checks
// that the outputs passed their checks and that every named metric is
// present with its unit and nothing else is.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := run(smallConfig(t, w.name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 20 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestWrongReferenceFails proves the output checks run: with a reference
// that is off by a little, every workload's run must report incorrect.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloads {
		cfg := smallConfig(t, w.name, false)
		cfg.tamper = func(ref *reference) {
			for i := range ref.scores {
				ref.scores[i] += 1e-6
			}
			for r := range ref.regionN {
				ref.regionN[r]++
			}
		}
		res, err := run(cfg, &bytes.Buffer{})
		if err == nil && res.Correct {
			t.Errorf("%s: run with a wrong reference reported correct", w.name)
		}
	}
}
