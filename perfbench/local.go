package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/serialize"
)

var errNoStop = errors.New("stop rule never latched inside the trial budget")

// result is one finished campaign.
type result struct {
	agg   campaign.Aggregate
	stop  int
	wall  float64 // seconds, campaign.Run call to return
	first float64 // seconds from the call to the first folded trial record
	latch float64 // seconds from the call to the stop rule latching; 0 if it did not
}

func (r result) trials() int { return r.agg.Trials + r.agg.Skipped }

// latchClock wraps the stop-rule fold to note when it latches. The
// decision itself is the wrapped watcher's.
type latchClock struct {
	*stats.Sequential
	start time.Time
	at    float64
}

func (l *latchClock) Observe(trial int, sdc, skipped bool) {
	l.Sequential.Observe(trial, sdc, skipped)
	if l.at == 0 && l.Sequential.ShouldStop() {
		l.at = since(l.start)
	}
}

// runCampaign runs one campaign and times it. The Progress callback is
// the engine's own (the CLI's -progress uses it): it notes the first
// folded record and does not change what the engine executes.
func runCampaign(ctx context.Context, cfg campaign.Config, w *stats.Sequential) (result, error) {
	start := time.Now()
	var first float64
	var once sync.Once
	cfg.ProgressEvery = 1
	cfg.Progress = func(campaign.Progress) { once.Do(func() { first = since(start) }) }
	var clock *latchClock
	if w != nil {
		clock = &latchClock{Sequential: w, start: start}
		cfg.Stop = clock
	}
	agg, err := campaign.Run(ctx, cfg)
	r := result{agg: agg, stop: stopIndex(w), wall: since(start), first: first}
	if clock != nil {
		r.latch = clock.at
	}
	return r, err
}

// reference returns the expected digest for key: the pinned value when
// there is one, otherwise the digest of compute, which runs the engine's
// reference configuration.
func (e *env) reference(key string, compute func() (string, error)) (string, error) {
	if d, ok := e.pins[key]; ok {
		return d, nil
	}
	e.logf("computing reference %s", key)
	t0 := time.Now()
	d, err := compute()
	e.logf("reference %s: %s (%.1fs)", key, d, since(t0))
	return d, err
}

func (f *fixture) referenceDigest(ctx context.Context, seed int64, trials int) (string, error) {
	w := f.watcher()
	r, err := runCampaign(ctx, f.config(seed, trials, true), w)
	if err != nil {
		return "", err
	}
	return digest(r.agg, r.stop), nil
}

// setupLocal builds the fixture SetupReps times; setup_s is the median.
func (e *env) setupLocal(k kind) (*fixture, error) {
	var f *fixture
	var times []float64
	for i := 0; i < e.sizes.SetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		f, err = buildFixture(k, e.tr)
		if err != nil {
			return nil, err
		}
		times = append(times, since(t0))
	}
	e.rep.samples["setup_s"] = times
	if !e.trace {
		e.rep.set("setup_s", median(times), "s")
	}
	return f, nil
}

// runLocal drives neuron-reuse, weight-full and int8-reuse. Each runs
// seeded campaigns of a fixed budget (trials_per_s, submit_to_done_s,
// first_record_ms); the stop-rule workloads also run the fixed
// time-to-target campaign (time_to_target_s), alternating the two.
func runLocal(ctx context.Context, e *env, k kind) error {
	f, err := e.setupLocal(k)
	if err != nil {
		return err
	}
	name := kindNames[k]
	budget := e.sizes.Budget
	if k == weightKind {
		budget = e.sizes.WeightBudget
	}
	refBudget, err := e.reference(fmt.Sprintf("%s/budget/%d", name, e.seed), func() (string, error) {
		return f.referenceDigest(ctx, e.seed, budget)
	})
	if err != nil {
		return err
	}
	refTarget := ""
	if f.hasStop {
		if refTarget, err = e.reference(name+"/target", func() (string, error) {
			return f.referenceDigest(ctx, targetSeed, e.sizes.TargetCap)
		}); err != nil {
			return err
		}
	}
	if e.trace {
		return tracedLocal(ctx, e, f, budget, refBudget, refTarget)
	}

	seeded := &unit{run: func() error {
		r, err := runCampaign(ctx, f.config(e.seed, budget, false), f.watcher())
		if err != nil {
			e.rep.op("campaign", err)
			return nil
		}
		e.rep.verify(fmt.Sprintf("campaign seed %d", e.seed), digest(r.agg, r.stop), refBudget)
		e.rep.sample("trials_per_s", float64(r.trials())/r.wall)
		e.rep.sample("submit_to_done_s", r.wall)
		e.rep.sample("first_record_ms", r.first*1e3)
		if !f.hasStop {
			// A fixed-budget answer is final when the budget is.
			e.rep.sample("time_to_target_s", r.wall)
		}
		return nil
	}}
	units := []*unit{seeded}
	if f.hasStop {
		units = append(units, &unit{run: func() error {
			r, err := runCampaign(ctx, f.config(targetSeed, e.sizes.TargetCap, false), f.watcher())
			if err == nil && r.stop < 0 {
				err = errNoStop
			}
			if err != nil {
				e.rep.op("time-to-target campaign", err)
				return nil
			}
			e.rep.verify("time-to-target campaign", digest(r.agg, r.stop), refTarget)
			e.rep.sample("time_to_target_s", r.latch)
			return nil
		}})
	}
	if err := e.loop(ctx, units); err != nil {
		return err
	}
	e.setEndToEnd()
	return nil
}

// setEndToEnd reports the end-to-end metrics from the timed samples:
// medians of the per-campaign values, and the process's peak RSS.
func (e *env) setEndToEnd() {
	for _, m := range []struct{ name, unit string }{
		{"trials_per_s", "1/s"}, {"time_to_target_s", "s"}, {"submit_to_done_s", "s"}, {"first_record_ms", "ms"},
	} {
		e.rep.set(m.name, median(e.rep.samples[m.name]), m.unit)
	}
	e.rep.set("peak_rss_mb", peakRSSMB(), "MB")
}

// unit is one repeatable timed step of a workload.
type unit struct {
	run  func() error
	last float64 // seconds the previous run took
	n    int
}

// loop alternates units until the run's --seconds are spent: a unit
// starts only if its previous duration still fits, once every unit has
// run MinReps times.
func (e *env) loop(ctx context.Context, units []*unit) error {
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		u := units[i%len(units)]
		enough := true
		for _, v := range units {
			enough = enough && v.n >= e.sizes.MinReps
		}
		if enough && time.Until(deadline).Seconds() < u.last {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		if err := u.run(); err != nil {
			return err
		}
		u.last = since(t0)
		u.n++
		e.logf("unit %d run %d: %.2fs", i%len(units), u.n, u.last)
	}
}

// tracedLocal is the traced run of a local workload: the seeded campaign
// untraced and then traced (the difference is the tracing overhead), the
// time-to-target campaign once for its stop index, and the per-layer
// probes.
func tracedLocal(ctx context.Context, e *env, f *fixture, budget int, refBudget, refTarget string) error {
	tr := e.tr
	untraced, err := runCampaign(ctx, f.config(e.seed, budget, false), f.watcher())
	if err != nil {
		return err
	}
	e.rep.verify("untraced campaign", digest(untraced.agg, untraced.stop), refBudget)

	w := f.watcher()
	cfg := f.config(e.seed, budget, false)
	cfg.NewReplica = func(worker int) (inj *core.Injector, err error) {
		tr.region("campaign.replica", func() { inj, err = f.newReplica(worker, tr) })
		return inj, err
	}
	traced, err := e.tracedCampaign(ctx, cfg, w)
	if err != nil {
		return err
	}
	e.rep.verify("traced campaign", digest(traced.agg, traced.stop), refBudget)
	e.setOverhead(untraced, traced)

	trialsToTarget := float64(budget)
	if f.hasStop {
		r, err := runCampaign(ctx, f.config(targetSeed, e.sizes.TargetCap, false), f.watcher())
		if err == nil && r.stop < 0 {
			err = errNoStop
		}
		if err != nil {
			return err
		}
		e.rep.verify("time-to-target campaign", digest(r.agg, r.stop), refTarget)
		trialsToTarget = float64(r.stop + 1)
	}
	e.rep.set("stats.trials_to_target", trialsToTarget, "trials")
	e.setStageTimes()

	pm := probeModel{
		build: func() (nn.Layer, error) {
			m, err := models.Build(fixtureArch, rand.New(rand.NewSource(fixtureSeed)), fixtureClasses, fixtureSize)
			if err != nil {
				return nil, err
			}
			nn.SetTraining(m, false)
			return m, nn.ShareParams(m, f.master)
		},
		quantize: func(m nn.Layer) error {
			calib, _ := f.ds.Batch(0, fixtureSamples)
			return nn.QuantizeModel(m, calib, nn.QuantizeOptions{})
		},
		injCfg: core.Config{Batch: f.lanes(), Height: fixtureSize, Width: fixtureSize, DType: core.FP32},
	}
	pm.exec = pm.build
	if f.kind == int8Kind {
		pm.exec = func() (nn.Layer, error) {
			m, err := pm.build()
			if err != nil {
				return nil, err
			}
			return m, nn.ShareQuant(m, f.qmaster)
		}
		pm.injCfg.DType = core.INT8
		pm.attach = (*core.Injector).UseQuantizedModel
	}
	img, _ := f.ds.Sample(0)
	sh := img.Shape()
	pm.x = img.Reshape(1, sh[0], sh[1], sh[2])
	spec, err := f.sc.Encode()
	if err != nil {
		return err
	}
	ck := serialize.CampaignCheckpoint{
		ID: e.workload, State: "done", Spec: spec,
		NextTrial: traced.trials(), StopTrial: traced.stop, Agg: serialize.NewAggregateState(traced.agg),
	}
	if w != nil {
		st := w.State()
		ck.Watcher = &st
	}
	return e.runProbes(pm, ck)
}

// runProbes runs every model-level per-layer probe.
func (e *env) runProbes(pm probeModel, ck serialize.CampaignCheckpoint) error {
	sz := e.sizes
	if err := e.probeKernels(pm, sz.KernelReps); err != nil {
		return err
	}
	if err := e.probeInt8(pm, sz.KernelReps); err != nil {
		return err
	}
	if err := e.probeHookOverhead(pm, sz.OverheadSeconds, sz.OverheadPairs); err != nil {
		return err
	}
	return e.probeCheckpoint(ck, sz.CheckpointReps)
}

// tracedCampaign runs cfg with spans around every call into the engine's
// layers: replica builds (cfg.NewReplica must record them), each arm
// call, each nn layer and injector hook (through the replica's
// instrumentation), and each trial from its arm call to its record
// reaching the sink. It sets the nn.*, core.* and campaign.* per-layer
// metrics.
func (e *env) tracedCampaign(ctx context.Context, cfg campaign.Config, w *stats.Sequential) (result, error) {
	tr := e.tr
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	arm := cfg.ArmTrial
	firstArm := int64(-1)
	cfg.ArmTrial = func(inj *core.Injector, rng *rand.Rand, trial int) (err error) {
		if firstArm < 0 {
			firstArm = tr.now()
		}
		tr.armStart(trial)
		tr.region("core.arm", func() { err = arm(inj, rng, trial) })
		return err
	}
	cfg.Sinks = append(cfg.Sinks, campaign.SinkFunc(func(rec campaign.TrialRecord) error {
		tr.trialDone(rec.Trial)
		return nil
	}))
	mark := tr.mark()
	runStart := tr.now()
	var r result
	var err error
	tr.region("campaign.run", func() { r, err = runCampaign(ctx, cfg, w) })
	tr.clearTrial()
	if err != nil {
		return r, err
	}

	trials := float64(r.agg.Trials + r.agg.Skipped)
	sum := tr.summarizeFrom(mark, func(s span) bool { return true })
	inTrial := tr.summarizeFrom(mark, func(s span) bool { return s.Trial >= 0 })
	selfPerTrial := func(kinds ...string) float64 {
		var ns int64
		for _, k := range kinds {
			if st := inTrial["nn."+k]; st != nil {
				ns += st.self
			}
		}
		return float64(ns) / 1e6 / trials
	}
	e.rep.set("nn.conv.self_ms", selfPerTrial("conv"), "ms")
	e.rep.set("nn.relu.self_ms", selfPerTrial("relu"), "ms")
	e.rep.set("nn.pool.self_ms", selfPerTrial("pool"), "ms")
	e.rep.set("nn.linear.self_ms", selfPerTrial("linear"), "ms")
	e.rep.set("nn.container.self_ms", selfPerTrial("concat", "sequential"), "ms")
	e.rep.set("nn.other.self_ms", selfPerTrial("batchnorm", "other"), "ms")
	for _, k := range []string{"batchnorm", "concat"} {
		if inTrial["nn."+k] != nil {
			e.rep.setExtra("nn."+k+".self_ms", selfPerTrial(k), "ms")
		}
	}
	calls := 0
	for name, st := range inTrial {
		if len(name) > 3 && name[:3] == "nn." {
			calls += st.count
		}
	}
	e.rep.set("nn.layer_calls", float64(calls)/trials, "calls/trial")
	if st := inTrial["core.hook"]; st != nil {
		e.rep.set("core.hook_us", float64(st.total)/1e3/float64(st.count), "us")
	} else {
		e.rep.set("core.hook_us", 0, "us")
	}
	if st := sum["core.arm"]; st != nil {
		e.rep.set("core.arm_us", float64(st.total)/1e3/float64(st.count), "us")
	}
	if st := sum["campaign.replica"]; st != nil {
		e.rep.set("campaign.replica_ms", median(st.durs)/1e6, "ms")
	}
	e.rep.set("campaign.pre_trial_ms", float64(firstArm-runStart)/1e6, "ms")
	if st := sum["campaign.trial"]; st != nil {
		ms := scale(st.durs, 1e-6)
		e.rep.samples["campaign.trial_ms"] = ms
		e.rep.set("campaign.trial_ms.p50", quantile(ms, 0.5), "ms")
		e.rep.set("campaign.trial_ms.p99", quantile(ms, 0.99), "ms")
	}
	hits := reg.Counter(campaign.MetricPrefixHits).Value()
	lookups := hits + reg.Counter(campaign.MetricPrefixMisses).Value() + reg.Counter(campaign.MetricPrefixFallbacks).Value()
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	e.rep.set("core.prefix.hit_ratio", hitRatio, "ratio")
	saved := float64(reg.Histogram(campaign.MetricPrefixSaved).Sum())
	spent := float64(reg.Timer(campaign.MetricTrialTime).Histogram().Sum())
	savedShare := 0.0
	if saved+spent > 0 {
		savedShare = saved / (saved + spent)
	}
	e.rep.set("core.prefix.saved_share", savedShare, "share")
	e.rep.set("campaign.sched.packed_share", reg.Gauge(campaign.MetricSchedPacked).Value()/trials, "share")
	e.rep.set("campaign.skipped", float64(r.agg.Skipped), "trials")
	return r, nil
}

// setOverhead reports the tracing overhead: how much slower the traced
// campaign ran than the same campaign untraced, in the same process.
func (e *env) setOverhead(untraced, traced result) {
	u := float64(untraced.trials()) / untraced.wall
	t := float64(traced.trials()) / traced.wall
	e.rep.samples["trials_per_s.untraced"] = []float64{u}
	e.rep.samples["trials_per_s.traced"] = []float64{t}
	e.rep.set("trace.overhead_pct", 100*(u-t)/u, "%")
}

// setStageTimes reports the set-up stages recorded as spans:
// scenario.compile_ms, the median decode plus the median compile over
// the set-up repetitions.
func (e *env) setStageTimes() {
	sum := e.tr.summarizeFrom(0, func(span) bool { return true })
	ms := 0.0
	for _, name := range []string{"scenario.decode", "scenario.compile"} {
		if st := sum[name]; st != nil {
			ms += median(st.durs) / 1e6
		}
	}
	e.rep.set("scenario.compile_ms", ms, "ms")
}
