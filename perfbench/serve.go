package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/experiments"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/scenario"
	"gofi/internal/serialize"
	"gofi/internal/serve"
)

// serveDoc is serve-sharded's fault shape: a trained AlexNet on 16x16
// inputs, where a trial costs about half a millisecond, so the
// coordinator fold, record log, checkpoints and streams are a large
// share of each campaign.
const serveDoc = `{"scenario_version": 1, "name": "serve-sharded",
  "model": {"arch": "alexnet", "classes": 4, "in_size": 16, "noise": 0.2},
  "fault": {"backend": "f32", "dtype": "fp32", "scope": "neuron", "error": {"kind": "bitflip"}},
  "selector": {"kind": "random", "rate": 1},
  "run": {"schedule": "auto", "prefix_reuse": true}}`

const (
	serveShards = 2
	// serveSlots bounds the server's concurrent shard legs: one per
	// shard, pinned rather than left to GOMAXPROCS.
	serveSlots = serveShards
	// statusPoll is how often a client whose live stream was cut polls
	// the campaign status for completion.
	statusPoll = 2 * time.Millisecond
)

// serveSpec is the wire spec each closed-loop campaign submits.
func (e *env) serveSpec(trials int) (serve.Spec, error) {
	sc, err := scenario.Decode([]byte(serveDoc))
	if err != nil {
		return serve.Spec{}, err
	}
	sc.Model.Epochs = e.sizes.ServeEpochs
	return serve.Spec{
		V: serve.WireVersion, Scenario: &sc, Seed: e.seed, Trials: trials,
		Shards: serveShards, Workers: engineWorkers,
	}, nil
}

// liveServer is an in-process gofi-serve on a loopback port.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	client *serve.Client
	tr     *http.Transport
	dir    string
}

func startServer(dir string) (*liveServer, error) {
	srv, err := serve.New(serve.Config{Dir: dir, Slots: serveSlots})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		tr:   &http.Transport{},
		dir:  dir,
	}
	s.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.tr}}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the HTTP server down, waits for it, closes the campaign
// server and removes its state directory.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Close()
	s.tr.CloseIdleConnections()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// waitDone polls a campaign until it settles and reports whether it
// finished.
func (s *liveServer) waitDone(ctx context.Context, id string) (serve.Status, error) {
	st, err := s.client.Wait(ctx, id, statusPoll)
	if err == nil && st.State != serve.StateDone {
		err = fmt.Errorf("campaign %s ended %s: %s", id, st.State, st.Err)
	}
	return st, err
}

// setupServe starts a server and has it train the fixture (a two-trial
// warm-up campaign fills its fixture cache), ServeSetupReps times;
// setup_s is the median. The last server is returned running.
func (e *env) setupServe(ctx context.Context) (*liveServer, error) {
	warm, err := e.serveSpec(serveShards)
	if err != nil {
		return nil, err
	}
	var times []float64
	var s *liveServer
	for i := 0; i < e.sizes.ServeSetupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		dir := filepath.Join(e.outDir, fmt.Sprintf("serve-state-%d-%d", os.Getpid(), i))
		t0 := time.Now()
		if s, err = startServer(dir); err != nil {
			return nil, err
		}
		st, err := s.client.Submit(ctx, warm)
		if err == nil {
			_, err = s.waitDone(ctx, st.ID)
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		times = append(times, since(t0))
	}
	e.rep.samples["setup_s"] = times
	if !e.trace {
		e.rep.set("setup_s", median(times), "s")
	}
	return s, nil
}

// prepareLocal builds the spec's campaign environment in-process, the
// way the server does, for the local reference run and the traced leg.
func prepareLocal(ctx context.Context, spec serve.Spec) (*experiments.CampaignEnv, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	return experiments.PrepareGenericCampaign(ctx, cfg)
}

// localLeg is the spec's whole trial range as one local engine leg with
// the spec's run knobs (reference: the reference configuration instead).
func localLeg(env *experiments.CampaignEnv, trials int, reference bool) campaign.Config {
	cfg := campaign.Config{
		Workers: engineWorkers, Trials: trials, Seed: env.CampaignSeed,
		Source: env.Source, Eligible: env.Eligible, NewReplica: env.NewReplica,
		ArmTrial: env.Compiled.ArmTrial, PrefixReuse: env.Cfg.PrefixReuse,
		TrialBatch: env.Cfg.TrialBatch, Schedule: env.Cfg.Schedule,
	}
	if reference {
		cfg.Schedule = campaign.ScheduleSeq
		cfg.PrefixReuse = false
	}
	return cfg
}

// serveStats collects the traced run's service-side measurements.
type serveStats struct {
	submit, gaps, replay, logBytes, ckpts []float64
	cuts                                  int
	lastCkpt                              string
}

// runServe drives serve-sharded: one closed-loop client submits the spec,
// follows the campaign live over /stream, then replays it from trial 0,
// campaign after campaign at the server's default checkpoint cadence.
// A live stream that ends without a done event is a failed operation,
// and the campaign's completion time then comes from its status.
func runServe(ctx context.Context, e *env) error {
	spec, err := e.serveSpec(e.sizes.ServeTrials)
	if err != nil {
		return err
	}
	s, err := e.setupServe(ctx)
	if err != nil {
		return err
	}
	defer func() {
		if err := s.stop(); err != nil {
			e.logf("stopping the server: %v", err)
		}
	}()

	var local *experiments.CampaignEnv
	prep := func() (err error) {
		if local == nil {
			local, err = prepareLocal(ctx, spec)
		}
		return err
	}
	ref, err := e.reference(fmt.Sprintf("serve-sharded/budget/%d", e.seed), func() (string, error) {
		if err := prep(); err != nil {
			return "", err
		}
		r, err := runCampaign(ctx, localLeg(local, spec.Trials, true), nil)
		if err != nil {
			return "", err
		}
		return digest(r.agg, r.stop), nil
	})
	if err != nil {
		return err
	}

	var ss serveStats
	step := &unit{run: func() error { return s.closedLoop(ctx, e, spec, ref, &ss) }}
	if err := e.loop(ctx, []*unit{step}); err != nil {
		return err
	}
	e.rep.setExtra("serve.stream_cut", float64(ss.cuts), "streams")
	if !e.trace {
		e.setEndToEnd()
		return nil
	}
	e.rep.setExtra("serve.submit_ms", median(ss.submit), "ms")
	e.rep.setExtra("serve.event_gap_ms.p50", quantile(ss.gaps, 0.5), "ms")
	e.rep.setExtra("serve.event_gap_ms.p99", quantile(ss.gaps, 0.99), "ms")
	e.rep.setExtra("serve.replay_ms", median(ss.replay), "ms")
	e.rep.setExtra("serve.log_bytes", median(ss.logBytes), "bytes")
	e.rep.setExtra("serve.checkpoints", median(ss.ckpts), "writes")
	e.rep.samples["serve.event_gap_ms"] = ss.gaps
	if err := prep(); err != nil {
		return err
	}
	return tracedServe(ctx, e, spec, local, ref, ss.lastCkpt)
}

// closedLoop runs one campaign: submit, follow live, replay from 0.
func (s *liveServer) closedLoop(ctx context.Context, e *env, spec serve.Spec, ref string, ss *serveStats) error {
	ckpts0 := s.srv.Metrics().Counter(serve.MetricCheckpointWrites).Value()
	t0 := time.Now()
	st, err := s.client.Submit(ctx, spec)
	submitted := since(t0)
	e.rep.op("submit", err)
	if err != nil {
		return nil
	}
	id := st.ID

	// Follow the campaign live. Event gaps are per-record timing, kept to
	// the traced run.
	var first, doneAt float64
	var last time.Time
	records, gotDone := 0, false
	streamErr := s.client.Stream(ctx, id, 0, func(ev serve.Event) error {
		now := time.Now()
		switch ev.Type {
		case "trial":
			if records == 0 {
				first = now.Sub(t0).Seconds()
			} else if e.trace {
				ss.gaps = append(ss.gaps, now.Sub(last).Seconds()*1e3)
			}
			last = now
			records++
		case "done":
			gotDone = true
			doneAt = now.Sub(t0).Seconds()
		case "error":
			return fmt.Errorf("campaign error event: %s", ev.Err)
		}
		return nil
	})
	if streamErr == nil && (!gotDone || records != spec.Trials) {
		streamErr = fmt.Errorf("stream ended after %d of %d records without a done event", records, spec.Trials)
	}
	e.rep.op("live stream "+id, streamErr)
	if streamErr != nil {
		ss.cuts++
	}
	if !gotDone {
		_, err := s.waitDone(ctx, id)
		doneAt = since(t0)
		e.rep.op("campaign "+id, err)
		if err != nil {
			return nil
		}
	} else {
		e.rep.op("campaign "+id, nil)
	}
	if records > 0 {
		e.rep.sample("first_record_ms", first*1e3)
	}
	e.rep.sample("trials_per_s", float64(spec.Trials)/doneAt)
	e.rep.sample("submit_to_done_s", doneAt)
	e.rep.sample("time_to_target_s", doneAt)

	// Replay the finished campaign from trial 0 and check its aggregate
	// against the reference.
	t1 := time.Now()
	var agg campaign.Aggregate
	replayed, replayDone := 0, false
	stopAt := -1
	err = s.client.Stream(ctx, id, 0, func(ev serve.Event) error {
		switch ev.Type {
		case "trial":
			if ev.Trial == nil {
				return errors.New("trial event without a record")
			}
			agg.AddRecord(*ev.Trial)
			replayed++
		case "done":
			replayDone = true
			if ev.Agg != nil {
				stopAt = ev.Agg.StopTrial
			}
		}
		return nil
	})
	replayTime := since(t1)
	if err == nil && (!replayDone || replayed != spec.Trials) {
		err = fmt.Errorf("replay ended after %d of %d records (done event: %v)", replayed, spec.Trials, replayDone)
	}
	if err != nil {
		e.rep.op("replay "+id, err)
	} else {
		e.rep.verify("replay "+id, digest(agg, stopAt), ref)
	}
	if e.trace {
		ss.submit = append(ss.submit, submitted*1e3)
		ss.replay = append(ss.replay, replayTime*1e3)
		if fi, err := os.Stat(filepath.Join(s.dir, id+".log.jsonl")); err == nil {
			ss.logBytes = append(ss.logBytes, float64(fi.Size()))
		}
		ss.ckpts = append(ss.ckpts, float64(s.srv.Metrics().Counter(serve.MetricCheckpointWrites).Value()-ckpts0))
		ss.lastCkpt = filepath.Join(s.dir, id+".ckpt")
	}
	return nil
}

// tracedServe measures the engine-side layers of serve-sharded on the
// spec's campaign run as one local leg (untraced, then traced), and runs
// the model probes on its trained fixture.
func tracedServe(ctx context.Context, e *env, spec serve.Spec, local *experiments.CampaignEnv, ref, ckptPath string) error {
	tr := e.tr
	untraced, err := runCampaign(ctx, localLeg(local, spec.Trials, false), nil)
	if err != nil {
		return err
	}
	e.rep.verify("local untraced leg", digest(untraced.agg, untraced.stop), ref)

	probe, err := local.NewReplica(0)
	if err != nil {
		return err
	}
	trained := probe.Model()
	layers := probe.Layers()
	probe.Detach()
	sc := *spec.Canon().Scenario
	arch, classes, size := sc.Model.Arch, sc.Model.Classes, sc.Model.InSize
	build := func() (nn.Layer, error) {
		m, err := models.Build(arch, rand.New(rand.NewSource(e.seed)), classes, size)
		if err != nil {
			return nil, err
		}
		nn.SetTraining(m, false)
		return m, nn.ShareParams(m, trained)
	}
	injCfg := core.Config{Batch: local.Cfg.TrialBatch, Height: size, Width: size, DType: local.Cfg.DType}
	cfg := localLeg(local, spec.Trials, false)
	cfg.NewReplica = func(w int) (inj *core.Injector, err error) {
		tr.region("campaign.replica", func() {
			var m nn.Layer
			if m, err = build(); err != nil {
				return
			}
			after := tr.instrument(m)
			c := injCfg
			c.Seed = int64(w)
			if inj, err = core.New(m, c); err == nil {
				after()
			}
		})
		return inj, err
	}
	traced, err := e.tracedCampaign(ctx, cfg, nil)
	if err != nil {
		return err
	}
	e.rep.verify("local traced leg", digest(traced.agg, traced.stop), ref)
	e.setOverhead(untraced, traced)
	e.rep.set("stats.trials_to_target", float64(spec.Trials), "trials")

	// Scenario decode + compile against the fixture's layers.
	var times []float64
	for i := 0; i < e.sizes.SetupReps; i++ {
		t0 := time.Now()
		tr.region("scenario.compile", func() {
			var s scenario.Scenario
			if s, err = scenario.Decode([]byte(serveDoc)); err == nil {
				_, err = scenario.Compile(s.Canon(), layers)
			}
		})
		times = append(times, since(t0))
		if err != nil {
			return err
		}
	}
	e.rep.set("scenario.compile_ms", median(times)*1e3, "ms")

	if ckptPath == "" {
		return errors.New("serve: no campaign checkpoint to probe")
	}
	ck, err := serialize.LoadCampaignCheckpoint(ckptPath)
	if err != nil {
		return err
	}
	img, _ := local.Source.Sample(0)
	sh := img.Shape()
	pm := probeModel{
		build: build,
		exec:  build,
		quantize: func(m nn.Layer) error {
			calib, _ := local.Source.Batch(0, 8)
			return nn.QuantizeModel(m, calib, nn.QuantizeOptions{})
		},
		injCfg: injCfg,
		x:      img.Reshape(1, sh[0], sh[1], sh[2]),
	}
	return e.runProbes(pm, ck)
}
