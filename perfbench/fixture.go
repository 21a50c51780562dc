package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/scenario"
)

// The local workloads share the DenseNet fixture of bench_test.go's
// prefix, stop-rule and int8 benchmarks: an untrained DenseNet (forward
// cost does not depend on the weights), 4 classes, 3x32x32 inputs, and
// the first 8 samples eligible.
const (
	fixtureArch    = "densenet"
	fixtureClasses = 4
	fixtureSize    = 32
	fixtureSeed    = 51
	fixtureSamples = 8
	// targetSeed is the campaign seed of the time-to-target question
	// (BENCH_stats.json: stops at trial 1,166 on f32).
	targetSeed = 52
)

type kind int

const (
	neuronKind kind = iota
	weightKind
	int8Kind
)

// scenarioDocs are the workloads' fault shapes as scenario documents.
// The run blocks state the execution knobs each workload runs with;
// trial budgets and seeds are set per campaign. The stop-rule scenarios
// run trial_batch 1: with lanes, the auto schedule executes trials sample
// by sample, and the index-ordered stop rule cannot latch until most of
// the 38,416-trial budget has run (README, "Known cost").
var scenarioDocs = map[kind]string{
	neuronKind: `{"scenario_version": 1, "name": "neuron-reuse",
  "model": {"arch": "densenet", "classes": 4, "in_size": 32, "noise": 0.2},
  "fault": {"backend": "f32", "dtype": "fp32", "scope": "neuron", "error": {"kind": "bitflip"}},
  "selector": {"kind": "random", "rate": 1},
  "run": {"workers": 1, "schedule": "auto", "trial_batch": 1, "prefix_reuse": true,
          "stop": {"ci": 0.005, "conf": 0.95}}}`,
	weightKind: `{"scenario_version": 1, "name": "weight-full",
  "model": {"arch": "densenet", "classes": 4, "in_size": 32, "noise": 0.2},
  "fault": {"backend": "f32", "dtype": "fp32", "scope": "weight", "error": {"kind": "bitflip"}},
  "selector": {"kind": "random", "rate": 1},
  "run": {"workers": 1, "schedule": "auto", "trial_batch": 1, "prefix_reuse": true}}`,
	int8Kind: `{"scenario_version": 1, "name": "int8-reuse",
  "model": {"arch": "densenet", "classes": 4, "in_size": 32, "noise": 0.2},
  "fault": {"backend": "int8", "scope": "neuron", "error": {"kind": "bitflip"}},
  "selector": {"kind": "random", "rate": 1},
  "run": {"workers": 1, "schedule": "auto", "trial_batch": 1, "prefix_reuse": true,
          "stop": {"ci": 0.005, "conf": 0.95}}}`,
}

var kindNames = map[kind]string{neuronKind: "neuron-reuse", weightKind: "weight-full", int8Kind: "int8-reuse"}

// fixture is a local workload's set-up product: dataset, master weights
// (quantized on int8), and the compiled scenario.
type fixture struct {
	kind     kind
	ds       *data.Classification
	master   nn.Layer
	qmaster  nn.Layer // int8 only: the quantized master replicas share
	eligible []int
	sc       scenario.Scenario
	comp     *scenario.Compiled
	sched    campaign.Schedule
	rule     stats.StopRule
	hasStop  bool
}

// buildFixture is the local workloads' set-up: dataset, model, int8
// quantization, scenario decode and compile against a probe replica.
func buildFixture(k kind, tr *tracer) (*fixture, error) {
	f := &fixture{kind: k}
	var err error
	tr.region("data.generate", func() {
		f.ds, err = data.NewClassification(data.ClassificationConfig{
			Classes: fixtureClasses, Channels: 3, Size: fixtureSize, Noise: 0.2, Seed: fixtureSeed,
		})
	})
	if err != nil {
		return nil, err
	}
	tr.region("models.build", func() {
		f.master, err = models.Build(fixtureArch, rand.New(rand.NewSource(fixtureSeed)), fixtureClasses, fixtureSize)
	})
	if err != nil {
		return nil, err
	}
	nn.SetTraining(f.master, false)
	for i := 0; i < fixtureSamples; i++ {
		f.eligible = append(f.eligible, i)
	}
	if k == int8Kind {
		tr.region("quant.calibrate", func() { f.qmaster, err = f.quantizedCopy() })
		if err != nil {
			return nil, err
		}
	}
	return f, f.compile(tr)
}

// quantizedCopy builds a replica of the master sharing its float
// weights and quantizes it on the first calibration batch.
func (f *fixture) quantizedCopy() (nn.Layer, error) {
	q, err := models.Build(fixtureArch, rand.New(rand.NewSource(fixtureSeed)), fixtureClasses, fixtureSize)
	if err != nil {
		return nil, err
	}
	if err := nn.ShareParams(q, f.master); err != nil {
		return nil, err
	}
	nn.SetTraining(q, false)
	calib, _ := f.ds.Batch(0, fixtureSamples)
	if err := nn.QuantizeModel(q, calib, nn.QuantizeOptions{}); err != nil {
		return nil, err
	}
	return q, nil
}

// compile decodes the workload's scenario and compiles it against a
// probe replica's profiled layers. The decode and the compile are the
// "scenario.decode" and "scenario.compile" spans.
func (f *fixture) compile(tr *tracer) error {
	var sc scenario.Scenario
	var err error
	tr.region("scenario.decode", func() { sc, err = scenario.Decode([]byte(scenarioDocs[f.kind])) })
	if err != nil {
		return err
	}
	f.sc = sc.Canon()
	probe, err := f.newReplica(0, nil)
	if err != nil {
		return err
	}
	layers := probe.Layers()
	probe.Detach()
	tr.region("scenario.compile", func() { f.comp, err = scenario.Compile(f.sc, layers) })
	if err != nil {
		return err
	}
	if f.sched, err = campaign.ParseSchedule(f.sc.Run.Schedule); err != nil {
		return err
	}
	if f.sc.Run.Stop.CI > 0 {
		f.hasStop = true
		f.rule = stats.StopRule{HalfWidth: f.sc.Run.Stop.CI, Confidence: f.sc.Run.Stop.Conf, MinTrials: f.sc.Run.Stop.Min}
	}
	return nil
}

// newReplica builds worker w's injector. When tr is non-nil every layer
// is instrumented with span hooks, installed around core.New so the
// injector's own hook is timed separately.
func (f *fixture) newReplica(w int, tr *tracer) (*core.Injector, error) {
	m, err := models.Build(fixtureArch, rand.New(rand.NewSource(fixtureSeed)), fixtureClasses, fixtureSize)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Batch: f.lanes(), Height: fixtureSize, Width: fixtureSize, DType: core.FP32, Seed: int64(w)}
	switch {
	case f.kind == weightKind:
		// Weight trials mutate and restore the weights they hit; each
		// replica gets its own copy, as weight campaigns do elsewhere.
		err = nn.CopyParams(m, f.master)
	default:
		err = nn.ShareParams(m, f.master)
	}
	if err != nil {
		return nil, err
	}
	if f.kind == int8Kind {
		if err := nn.ShareQuant(m, f.qmaster); err != nil {
			return nil, err
		}
		cfg.DType = core.INT8
	}
	nn.SetTraining(m, false)
	var after func()
	if tr != nil {
		after = tr.instrument(m)
	}
	inj, err := core.New(m, cfg)
	if err != nil {
		return nil, err
	}
	if after != nil {
		after()
	}
	if f.kind == int8Kind {
		if err := inj.UseQuantizedModel(); err != nil {
			inj.Detach()
			return nil, err
		}
	}
	return inj, nil
}

// lanes is the replicas' profiled batch, the engine's lane budget.
func (f *fixture) lanes() int {
	if f.sc.Run.TrialBatch > 1 {
		return f.sc.Run.TrialBatch
	}
	return 1
}

// config is the campaign the workload runs: the scenario's run knobs,
// one engine worker. reference selects the engine's reference
// configuration instead: one worker, sequential schedule, no prefix
// reuse — the configuration every timed result must equal byte for byte.
func (f *fixture) config(seed int64, trials int, reference bool) campaign.Config {
	cfg := campaign.Config{
		Workers:     engineWorkers,
		Trials:      trials,
		Seed:        seed,
		Source:      f.ds,
		Eligible:    f.eligible,
		ArmTrial:    f.comp.ArmTrial,
		PrefixReuse: *f.sc.Run.PrefixReuse,
		TrialBatch:  f.sc.Run.TrialBatch,
		Schedule:    f.sched,
		NewReplica:  func(w int) (*core.Injector, error) { return f.newReplica(w, nil) },
	}
	if reference {
		cfg.Workers = 1
		cfg.Schedule = campaign.ScheduleSeq
		cfg.PrefixReuse = false
	}
	return cfg
}

// watcher returns a fresh stop-rule fold, or nil for fixed-budget
// workloads.
func (f *fixture) watcher() *stats.Sequential {
	if !f.hasStop {
		return nil
	}
	return stats.NewSequential(f.rule)
}

// digest fingerprints a campaign result: every aggregate counter, the
// confidence-drop sum's exact bits, and the stop index (-1 when no rule
// latched).
func digest(agg campaign.Aggregate, stop int) string {
	s := fmt.Sprintf("trials=%d top1=%d top5=%d nonfinite=%d bigdrop=%d skipped=%d dropsum=%016x stop=%d",
		agg.Trials, agg.Top1Mis, agg.OutOfTop5, agg.NonFinite, agg.BigConfDrop, agg.Skipped,
		math.Float64bits(agg.ConfDropSum), stop)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func stopIndex(w *stats.Sequential) int {
	if w == nil {
		return -1
	}
	return w.StopTrial()
}
