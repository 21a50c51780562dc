package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"gofi/internal/nn"
	"gofi/internal/tensor"
)

// span is one timed call into a module. Spans nest through Parent; spans
// recorded while a trial executes carry its index in Trial.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: a root span
	Name   string `json:"name"`
	Trial  int32  `json:"trial"` // -1: outside any trial
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; they are written out when
// the run ends. Nesting is tracked on one stack, so instrumented code
// must run its layers on one goroutine at a time — the traced campaigns
// use one engine worker and one tensor worker. Spans that close on
// another goroutine (a trial's record reaching the sink) are added whole
// by trialDone.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	stack  []int32
	trial  int32
	// armed maps a trial to the time its (last) arm call started.
	armed map[int]int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), trial: -1, armed: map[int]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) begin(name string) {
	now := t.now()
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trial: t.trial, Start: now, End: -1})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
}

func (t *tracer) end() {
	now := t.now()
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		t.spans[t.stack[n-1]].End = now
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// region records fn as one span.
func (t *tracer) region(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.begin(name)
	defer t.end()
	fn()
}

// armStart marks the start of trial's arm call and makes it the current
// trial for spans that follow.
func (t *tracer) armStart(trial int) {
	now := t.now()
	t.mu.Lock()
	t.trial = int32(trial)
	t.armed[trial] = now
	t.mu.Unlock()
}

// trialDone closes trial's span, from its last arm call to now.
func (t *tracer) trialDone(trial int) {
	now := t.now()
	t.mu.Lock()
	if start, ok := t.armed[trial]; ok {
		delete(t.armed, trial)
		t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: -1, Name: "campaign.trial", Trial: int32(trial), Start: start, End: now})
	}
	t.mu.Unlock()
}

func (t *tracer) clearTrial() {
	t.mu.Lock()
	t.trial = -1
	t.mu.Unlock()
}

// spanStat sums the spans of one name.
type spanStat struct {
	count int
	total int64 // ns
	self  int64 // ns, total minus time covered by child spans
	durs  []float64
}

// summarizeFrom aggregates, by name, the closed spans recorded since mark
// that keep passes. A span's self time is its duration minus its
// children's durations.
func (t *tracer) summarizeFrom(mark int, keep func(span) bool) map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStat{}
	for _, s := range t.spans[mark:] {
		if s.End < 0 || !keep(s) {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.self += d - child[s.ID]
		st.durs = append(st.durs, float64(d))
	}
	return out
}

// mark returns the number of spans recorded so far; summaries from a
// mark cover one phase of the run.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerKind names an nn layer's kind for per-layer attribution.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2d:
		return "conv"
	case *nn.BatchNorm2d:
		return "batchnorm"
	case *nn.ReLU:
		return "relu"
	case *nn.MaxPool2d, *nn.AvgPool2d, *nn.GlobalAvgPool2d:
		return "pool"
	case *nn.Concat:
		return "concat"
	case *nn.Linear:
		return "linear"
	case *nn.Sequential, *nn.Residual:
		return "sequential"
	default:
		return "other"
	}
}

type hookSite interface {
	RegisterForwardPreHook(nn.ForwardPreHook) nn.HookHandle
	RegisterForwardHook(nn.ForwardHook) nn.HookHandle
}

// instrument registers span hooks on every layer of m: a pre-forward
// hook opens an "nn.<kind>" span and a post-forward hook closes it. Call
// it before core.New attaches the injector, then call the returned
// function after: on each convolution it adds a second post-forward hook
// behind the injector's, so the injector hook runs inside its own
// "core.hook" span, between the two.
func (t *tracer) instrument(m nn.Layer) (afterInjector func()) {
	var convs []hookSite
	live := false
	nn.Walk(m, func(_ string, l nn.Layer) {
		h, ok := l.(hookSite)
		if !ok {
			return
		}
		name := "nn." + layerKind(l)
		_, isConv := l.(*nn.Conv2d)
		h.RegisterForwardPreHook(func(nn.Layer, *tensor.Tensor) { t.begin(name) })
		h.RegisterForwardHook(func(nn.Layer, *tensor.Tensor, *tensor.Tensor) {
			t.end()
			if isConv && live {
				t.begin("core.hook")
			}
		})
		if isConv {
			convs = append(convs, h)
		}
	})
	return func() {
		for _, h := range convs {
			h.RegisterForwardHook(func(nn.Layer, *tensor.Tensor, *tensor.Tensor) { t.end() })
		}
		live = true
	}
}
