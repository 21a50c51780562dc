// Command perfbench is gofi's benchmark. It runs one of four
// fault-injection campaign workloads in-process, through the packages'
// public APIs (campaign.Run, scenario.Decode/Compile, core.New, nn hooks,
// tensor kernels, serve.New/Client), checks every campaign result against
// a reference run, and prints its metrics.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload neuron-reuse --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// attached; --trace 1 is a separate run that records spans around the
// calls into each module and reports the per-layer metrics plus the
// tracing overhead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Host and session details,
// raw samples and (traced runs) the span log are written under
// .bench_out/ in the working directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's results.
type report struct {
	correct   bool
	attempted int
	failed    int
	// metrics are the names BENCHMARK.json lists for this run's kind
	// (end-to-end when untraced, per-layer when traced).
	metrics map[string]metric
	// extra are per-layer metrics that exist only on some workloads
	// (serve.*, the DenseNet-only layer kinds); printed and saved, but not
	// part of the result line.
	extra map[string]metric
	// samples are the raw per-campaign measurements behind each median.
	samples map[string][]float64
	// failures describe each failed operation.
	failures []string
}

func newReport() *report {
	return &report{
		correct: true,
		metrics: map[string]metric{},
		extra:   map[string]metric{},
		samples: map[string][]float64{},
	}
}

func (r *report) set(name string, v float64, unit string)      { r.metrics[name] = metric{v, unit} }
func (r *report) setExtra(name string, v float64, unit string) { r.extra[name] = metric{v, unit} }
func (r *report) sample(name string, v float64)                { r.samples[name] = append(r.samples[name], v) }

// op counts one attempted operation; a non-nil err marks it failed
// without touching correctness (a refused or cut operation).
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// verify counts one attempted operation whose output must equal want; a
// mismatch is a failed operation and makes the run incorrect.
func (r *report) verify(what, got, want string) {
	r.attempted++
	if got != want {
		r.failed++
		r.correct = false
		r.failures = append(r.failures, fmt.Sprintf("%s: digest %s, reference %s", what, got, want))
	}
}

// env is one benchmark run.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	// pins are reference digests known in advance (see pins.go); a key
	// that is absent is computed by running the reference configuration.
	pins map[string]string
	// outDir receives the session file and, when traced, the span log.
	outDir string
	rep    *report
	tr     *tracer
	// log receives progress lines (standard error).
	log io.Writer
}

func (e *env) logf(format string, args ...any) {
	if e.log != nil {
		fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
	}
}

// runners maps workload names to the functions that run them.
var runners = map[string]func(context.Context, *env) error{
	"neuron-reuse":  func(ctx context.Context, e *env) error { return runLocal(ctx, e, neuronKind) },
	"weight-full":   func(ctx context.Context, e *env) error { return runLocal(ctx, e, weightKind) },
	"int8-reuse":    func(ctx context.Context, e *env) error { return runLocal(ctx, e, int8Kind) },
	"serve-sharded": runServe,
}

func workloadNames() []string {
	var names []string
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runLimit bounds one run, so a hung campaign or stream ends it with an
// error instead of running on.
const runLimit = 170 * time.Second

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		cancel()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: one of "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := runners[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		sizes:    defaultSizes,
		pins:     pinnedDigests,
		outDir:   ".bench_out",
		rep:      newReport(),
		log:      stderr,
	}
	if err := execute(ctx, e, runner); err != nil {
		return err
	}
	return e.write(stdout)
}

// execute runs one workload with host pinning and tracing set up.
func execute(ctx context.Context, e *env, runner func(context.Context, *env) error) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	if e.trace {
		e.tr = newTracer()
	}
	pinWorkers()
	return runner(ctx, e)
}

// write prints every metric by name and unit, saves the session file,
// and prints the result line last.
func (e *env) write(stdout io.Writer) error {
	r := e.rep
	for _, name := range sortedKeys(r.metrics) {
		fmt.Fprintf(stdout, "metric %-32s %14.6f %s\n", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
	for _, name := range sortedKeys(r.extra) {
		fmt.Fprintf(stdout, "extra %-32s %14.6f %s\n", name, r.extra[name].Value, r.extra[name].Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(stdout, "failed %s\n", f)
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", name)
		}
	}
	sess := session{
		Host:      hostInfo(),
		Workload:  e.workload,
		Seed:      e.seed,
		Seconds:   e.seconds,
		Traced:    e.trace,
		Metrics:   r.metrics,
		Extra:     r.extra,
		Samples:   r.samples,
		Failures:  r.failures,
		Attempted: r.attempted,
		Failed:    r.failed,
		Correct:   r.correct,
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", e.workload, e.seed, map[bool]int{false: 0, true: 1}[e.trace])
	if err := writeJSONFile(filepath.Join(e.outDir, base+".json"), sess); err != nil {
		return err
	}
	if e.tr != nil {
		if err := e.tr.writeFile(filepath.Join(e.outDir, base+".spans.jsonl")); err != nil {
			return err
		}
	}
	stamp, err := json.Marshal(struct {
		Host     host   `json:"host"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Traced   bool   `json:"traced"`
		File     string `json:"samples_file"`
	}{sess.Host, e.workload, e.seed, e.trace, filepath.Join(e.outDir, base+".json")})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "session %s\n", stamp)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// session is the saved record of one run: where and how it was measured,
// and every raw sample behind the reported medians.
type session struct {
	Host      host                 `json:"host"`
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Metrics   map[string]metric    `json:"metrics"`
	Extra     map[string]metric    `json:"extra,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	Failures  []string             `json:"failures,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Correct   bool                 `json:"correct"`
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// seconds since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
