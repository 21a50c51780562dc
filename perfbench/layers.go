package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gofi/internal/core"
	"gofi/internal/nn"
	"gofi/internal/serialize"
	"gofi/internal/tensor"
)

// probeModel describes a workload's model to the per-layer probes.
type probeModel struct {
	// build returns a fresh float32 model sharing the fixture's weights,
	// with no hooks attached.
	build func() (nn.Layer, error)
	// exec returns a fresh model as the workload executes it (quantized
	// on int8), with no hooks attached.
	exec func() (nn.Layer, error)
	// quantize quantizes a model from build in place; it is what
	// quant.calibrate_ms times.
	quantize func(nn.Layer) error
	// injCfg is the injector geometry the workload's replicas use, and
	// attach finishes an injector on an exec model (nil: nothing to do).
	injCfg core.Config
	attach func(*core.Injector) error
	// x is one input sample, [1, C, H, W].
	x *tensor.Tensor
}

// convCall is one convolution of a recorded forward pass.
type convCall struct {
	layer *nn.Conv2d
	in    *tensor.Tensor
}

// recordConvs runs one forward pass of m on x and returns every
// convolution's layer and input, in execution order.
func recordConvs(m nn.Layer, x *tensor.Tensor) []convCall {
	var calls []convCall
	var handles []nn.HookHandle
	nn.Walk(m, func(_ string, l nn.Layer) {
		if c, ok := l.(*nn.Conv2d); ok {
			handles = append(handles, c.RegisterForwardPreHook(func(_ nn.Layer, in *tensor.Tensor) {
				calls = append(calls, convCall{layer: c, in: in.Clone()})
			}))
		}
	})
	nn.Run(m, x)
	for _, h := range handles {
		h.Remove()
	}
	return calls
}

// probeKernels replays the recorded convolutions of one forward pass
// through tensor.Conv2dInto, and their GEMM cores (the same [Cout/g, K]
// x [K, OH*OW] products per sample and group) through tensor.MatMulAcc.
// It sets tensor.conv_f32.ms and tensor.gemm_f32.ms (medians over reps of
// the per-forward total), tensor.im2col_share = 1 - gemm/conv — the part
// of convolution time spent outside the GEMM, chiefly im2col — and
// tensor.conv_f32.gflops, whose operation count is computed from
// tensor.ConvFLOPs for the recorded shapes, not measured.
func (e *env) probeKernels(pm probeModel, reps int) error {
	m, err := pm.build()
	if err != nil {
		return err
	}
	calls := recordConvs(m, pm.x)
	if len(calls) == 0 {
		return errors.New("probe: model has no convolutions")
	}
	type gemmCase struct {
		a, b, dst *tensor.Tensor
		units     int
	}
	dsts := make([]*tensor.Tensor, len(calls))
	gemms := make([]gemmCase, len(calls))
	flops := 0.0
	for i, c := range calls {
		w := c.layer.Weight().Data
		spec := c.layer.Spec
		inShape, wShape := c.in.Shape(), w.Shape()
		out := tensor.ConvOutShape(inShape, wShape, spec)
		dsts[i] = tensor.New(out...)
		flops += tensor.ConvFLOPs(inShape, wShape, spec)
		g := spec.Canon().Groups
		coutG, kdim, l := wShape[0]/g, wShape[1]*wShape[2]*wShape[3], out[2]*out[3]
		a := tensor.New(coutG, kdim)
		copy(a.Data(), w.Data()[:coutG*kdim])
		b := tensor.New(kdim, l)
		src := c.in.Data()
		for j := range b.Data() {
			b.Data()[j] = src[j%len(src)]
		}
		gemms[i] = gemmCase{a: a, b: b, dst: tensor.New(coutG, l), units: inShape[0] * g}
	}
	convT := make([]float64, reps)
	gemmT := make([]float64, reps)
	for r := 0; r < reps; r++ {
		e.tr.region("tensor.conv_f32", func() {
			for i, c := range calls {
				var bias *tensor.Tensor
				if p := c.layer.Bias(); p != nil {
					bias = p.Data
				}
				t0 := time.Now()
				tensor.Conv2dInto(dsts[i], c.in, c.layer.Weight().Data, bias, c.layer.Spec)
				convT[r] += since(t0)
			}
		})
		e.tr.region("tensor.gemm_f32", func() {
			for _, gc := range gemms {
				t0 := time.Now()
				for u := 0; u < gc.units; u++ {
					tensor.MatMulAcc(gc.dst, gc.a, gc.b)
				}
				gemmT[r] += since(t0)
			}
		})
	}
	conv, gemm := median(convT), median(gemmT)
	e.rep.samples["tensor.conv_f32.ms"] = scale(convT, 1e3)
	e.rep.samples["tensor.gemm_f32.ms"] = scale(gemmT, 1e3)
	e.rep.set("tensor.conv_f32.ms", conv*1e3, "ms")
	e.rep.set("tensor.gemm_f32.ms", gemm*1e3, "ms")
	e.rep.set("tensor.im2col_share", 1-gemm/conv, "share")
	e.rep.set("tensor.conv_f32.gflops", flops/conv/1e9, "GFLOP/s")
	return nil
}

// probeInt8 quantizes a fresh copy of the workload's model (timing the
// calibration as quant.calibrate_ms), then replays its recorded
// convolutions through tensor.Conv2dInt8Into (tensor.conv_i8.ms) and
// their input quantization through tensor.QuantizeI8Into
// (tensor.quantize_i8.ms), per forward pass.
func (e *env) probeInt8(pm probeModel, reps int) error {
	var calib []float64
	var qm nn.Layer
	for r := 0; r < reps; r++ {
		m, err := pm.build()
		if err != nil {
			return err
		}
		t0 := time.Now()
		e.tr.region("quant.calibrate", func() { err = pm.quantize(m) })
		calib = append(calib, since(t0))
		if err != nil {
			return err
		}
		qm = m
	}
	e.rep.samples["quant.calibrate_ms"] = scale(calib, 1e3)
	e.rep.set("quant.calibrate_ms", median(calib)*1e3, "ms")

	calls := recordConvs(qm, pm.x)
	type i8case struct {
		c      convCall
		qs     *nn.QuantState
		params tensor.QuantParams
		dst    *tensor.Tensor
		codes  []int8
	}
	var cases []i8case
	for _, c := range calls {
		qs := c.layer.Quant()
		if qs == nil {
			return fmt.Errorf("probe: convolution %s was not quantized", c.layer.Name())
		}
		ws := make([]float32, len(qs.WScales))
		for i, s := range qs.WScales {
			ws[i] = float32(s)
		}
		p := tensor.QuantParams{InScale: float32(qs.In.S), InZP: qs.In.ZP, WScales: ws, RowSums: qs.RowSums}
		if b := c.layer.Bias(); b != nil {
			p.Bias = b.Data.Data()
		}
		out := tensor.ConvOutShape(c.in.Shape(), c.layer.Weight().Data.Shape(), c.layer.Spec)
		cases = append(cases, i8case{c: c, qs: qs, params: p, dst: tensor.New(out...), codes: make([]int8, c.in.Len())})
	}
	convT := make([]float64, reps)
	quantT := make([]float64, reps)
	for r := 0; r < reps; r++ {
		e.tr.region("tensor.conv_i8", func() {
			for _, k := range cases {
				t0 := time.Now()
				tensor.Conv2dInt8Into(k.dst, k.c.in, k.qs.WCodes, k.c.layer.Weight().Data.Shape(), k.params, k.c.layer.Spec)
				convT[r] += since(t0)
			}
		})
		e.tr.region("tensor.quantize_i8", func() {
			for _, k := range cases {
				t0 := time.Now()
				tensor.QuantizeI8Into(k.codes, k.c.in.Data(), float32(k.qs.In.S), k.qs.In.ZP)
				quantT[r] += since(t0)
			}
		})
	}
	e.rep.samples["tensor.conv_i8.ms"] = scale(convT, 1e3)
	e.rep.samples["tensor.quantize_i8.ms"] = scale(quantT, 1e3)
	e.rep.set("tensor.conv_i8.ms", median(convT)*1e3, "ms")
	e.rep.set("tensor.quantize_i8.ms", median(quantT)*1e3, "ms")
	return nil
}

// probeHookOverhead measures the paper's claim that installed but
// disarmed injection hooks cost next to nothing. A bare model and a
// model with core.New's hooks attached (nothing armed) run forwards in
// interleaved pairs, alternating which goes first, each forward timed
// to the nanosecond, for about seconds (at most maxPairs pairs).
// core.hook_overhead_pct is the paired mean delta as a share of the bare
// mean, with a bootstrap 95% interval (.lo, .hi).
func (e *env) probeHookOverhead(pm probeModel, seconds float64, maxPairs int) error {
	bare, err := pm.exec()
	if err != nil {
		return err
	}
	hookedModel, err := pm.exec()
	if err != nil {
		return err
	}
	inj, err := core.New(hookedModel, pm.injCfg)
	if err != nil {
		return err
	}
	defer inj.Detach()
	if pm.attach != nil {
		if err := pm.attach(inj); err != nil {
			return err
		}
	}
	for _, m := range []nn.Layer{bare, hookedModel} {
		nn.SetOutputReuse(m, true)
		for i := 0; i < 3; i++ {
			nn.Run(m, pm.x)
		}
	}
	timeOne := func(m nn.Layer) float64 {
		t0 := time.Now()
		nn.Run(m, pm.x)
		return float64(time.Since(t0).Nanoseconds())
	}
	var base, hooked []float64
	e.tr.region("core.hook_overhead", func() {
		start := time.Now()
		for len(base) < maxPairs && (len(base) < 20 || since(start) < seconds) {
			for _, hookedFirst := range []bool{false, true} {
				if hookedFirst {
					hooked = append(hooked, timeOne(hookedModel))
					base = append(base, timeOne(bare))
				} else {
					base = append(base, timeOne(bare))
					hooked = append(hooked, timeOne(hookedModel))
				}
			}
		}
	})
	pct, lo, hi := pairedOverheadPct(base, hooked, rand.New(rand.NewSource(e.seed)), 2000)
	e.rep.set("core.hook_overhead_pct", pct, "%")
	e.rep.set("core.hook_overhead_pct.lo", lo, "%")
	e.rep.set("core.hook_overhead_pct.hi", hi, "%")
	e.rep.samples["core.hook_overhead.bare_ns"] = base
	e.rep.samples["core.hook_overhead.hooked_ns"] = hooked
	return nil
}

// probeCheckpoint times serialize's public campaign checkpoint Save and
// Load on the workload's own checkpoint, reps times each, and checks the
// loaded checkpoint round-trips.
func (e *env) probeCheckpoint(ck serialize.CampaignCheckpoint, reps int) error {
	path := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.ckpt", e.workload, e.seed))
	defer os.Remove(path)
	var save, load []float64
	for r := 0; r < reps; r++ {
		var err error
		t0 := time.Now()
		e.tr.region("serialize.save", func() { err = serialize.SaveCampaignCheckpoint(path, ck) })
		save = append(save, since(t0))
		if err != nil {
			return err
		}
		var got serialize.CampaignCheckpoint
		t0 = time.Now()
		e.tr.region("serialize.load", func() { got, err = serialize.LoadCampaignCheckpoint(path) })
		load = append(load, since(t0))
		if err != nil {
			return err
		}
		if r == 0 {
			e.rep.verify("checkpoint round trip", digest(got.Agg.Aggregate(), got.StopTrial), digest(ck.Agg.Aggregate(), ck.StopTrial))
		}
	}
	e.rep.samples["serialize.checkpoint_save_ms"] = scale(save, 1e3)
	e.rep.samples["serialize.checkpoint_load_ms"] = scale(load, 1e3)
	e.rep.set("serialize.checkpoint_save_ms", median(save)*1e3, "ms")
	e.rep.set("serialize.checkpoint_load_ms", median(load)*1e3, "ms")
	return nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
