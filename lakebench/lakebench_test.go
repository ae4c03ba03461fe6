package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

var workloads = []string{"star-warm", "lake-scan", "tenant-mix"}

// tinyRun runs one workload on shrunken worlds: closed loops for two
// passes, the open loop for one second.
func tinyRun(t *testing.T, wl string, seed uint64, trace, plantWrong bool) result {
	t.Helper()
	res, err := run(options{workload: wl, seed: seed, seconds: 1, trace: trace, tiny: true, passes: 2, plantWrong: plantWrong}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", wl, err)
	}
	return res
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (endToEnd, perLayer []benchMetric) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// TestEmitsEveryBenchmarkMetric checks that every workload, untraced
// and traced, emits exactly the metrics BENCHMARK.json names, each with
// its unit, and answers correctly.
func TestEmitsEveryBenchmarkMetric(t *testing.T) {
	endToEnd, perLayer := readBenchmarkJSON(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, wl, 3, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%t: missing %s", wl, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%t: %s unit %q, BENCHMARK.json says %q", wl, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace && res.Metrics["systables.jobs_recorded_per_query"].Value != 1 {
				t.Errorf("%s: systables.jobs_recorded_per_query = %v, want exactly 1", wl, res.Metrics["systables.jobs_recorded_per_query"].Value)
			}
		}
	}
}

// TestPlantedWrongAnswerFails corrupts the reference answers and
// checks the run reports wrong answers instead of passing.
func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, wl := range workloads {
		res := tinyRun(t, wl, 5, false, true)
		if res.Correct || res.Failed == 0 || res.endToEnd["error_rate"] <= 0 {
			t.Errorf("%s: planted wrong answer not caught: correct=%t failed=%d error_rate=%v",
				wl, res.Correct, res.Failed, res.endToEnd["error_rate"])
		}
	}
}

// TestSingleClientCountsRepeat runs the single-client workloads twice
// on one seed: the object-store, scan and simulated-time figures must
// repeat exactly.
func TestSingleClientCountsRepeat(t *testing.T) {
	for _, wl := range []string{"star-warm", "lake-scan"} {
		a := tinyRun(t, wl, 9, true, false)
		b := tinyRun(t, wl, 9, true, false)
		for _, name := range []string{"objstore.gets_per_query", "engine.files_scanned_per_query", "engine.sim_ms_per_query"} {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s %v then %v", wl, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if a.endToEnd["sim_ms_per_query"] != b.endToEnd["sim_ms_per_query"] {
			t.Errorf("%s: sim_ms_per_query %v then %v", wl, a.endToEnd["sim_ms_per_query"], b.endToEnd["sim_ms_per_query"])
		}
	}
}
