package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinySizes keeps every workload to a few seconds.
var tinySizes = sizes{
	SetupReps:       1,
	ServeSetupReps:  1,
	Budget:          10,
	WeightBudget:    4,
	TargetCap:       2000,
	MinReps:         1,
	ServeTrials:     40,
	ServeEpochs:     2,
	KernelReps:      1,
	OverheadSeconds: 0,
	OverheadPairs:   20,
	CheckpointReps:  1,
}

// loosenStopRule widens the stop rule of the stop-rule scenarios to ±5%,
// so their time-to-target campaigns latch after a hundred-odd trials.
func loosenStopRule(t *testing.T) {
	t.Helper()
	saved := map[kind]string{}
	for k, doc := range scenarioDocs {
		saved[k] = doc
		scenarioDocs[k] = strings.Replace(doc, `"ci": 0.005`, `"ci": 0.05`, 1)
	}
	t.Cleanup(func() {
		for k, doc := range saved {
			scenarioDocs[k] = doc
		}
	})
}

func tinyEnv(t *testing.T, workload string, trace bool) *env {
	return &env{
		workload: workload,
		seed:     defaultSeed,
		seconds:  0.01,
		trace:    trace,
		sizes:    tinySizes,
		pins:     map[string]string{}, // pins hold for defaultSizes only
		outDir:   t.TempDir(),
		rep:      newReport(),
	}
}

// TestWorkloadsTiny runs every workload of BENCHMARK.json tiny, untraced
// and traced, and checks that each run passes its correctness checks and
// prints exactly the metrics BENCHMARK.json lists for its kind, each with
// the listed unit, on a final JSON line.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	loosenStopRule(t)
	for _, w := range bf.Workloads {
		runner, ok := runners[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range bf.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			e := tinyEnv(t, w.Name, trace)
			if err := execute(context.Background(), e, runner); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !e.rep.correct {
				t.Errorf("%s trace=%v: incorrect: %v", w.Name, trace, e.rep.failures)
			}
			var out bytes.Buffer
			if err := e.write(&out); err != nil {
				t.Fatalf("%s trace=%v: write: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool             `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if res.Correct == nil || res.Failed == nil || res.Attempted < 1 {
				t.Errorf("%s trace=%v: result line lacks correct/attempted/failed: %s", w.Name, trace, lines[len(lines)-1])
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
					continue
				}
				if got.Unit == "" || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not listed in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// TestWrongReferenceIsFailure checks that a campaign whose digest differs
// from its reference is counted as a failed operation and makes the run
// incorrect.
func TestWrongReferenceIsFailure(t *testing.T) {
	e := tinyEnv(t, "weight-full", false)
	e.pins = map[string]string{"weight-full/budget/1": "0000000000000000"}
	if err := execute(context.Background(), e, runners["weight-full"]); err != nil {
		t.Fatal(err)
	}
	if e.rep.correct || e.rep.failed == 0 || e.rep.failed > e.rep.attempted {
		t.Fatalf("wrong reference not reported: correct=%v attempted=%d failed=%d", e.rep.correct, e.rep.attempted, e.rep.failed)
	}
	if !strings.Contains(strings.Join(e.rep.failures, "\n"), "reference 0000000000000000") {
		t.Fatalf("failures do not name the reference: %v", e.rep.failures)
	}
}
