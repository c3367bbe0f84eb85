// Command perfbench is the repository's whole-pipeline benchmark. It drives
// the real command binaries (lbd, harvestd, harvestagg, rolloutd, harvest),
// built from the checkout being measured, with a seeded open-loop load
// from this single process, checks that their outputs are correct, and
// prints one JSON result line.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
//	          -root DIR -bin DIR -work DIR
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1
// the same workload runs again with the generator's operations traced, and
// each layer is then timed from outside, in this process, through the
// public constructors and functions the binaries call; the result carries
// the per-layer metrics and the span file is validated with tracecat. See
// README.md for the workloads and the layer-to-metric map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: where the binaries are, where it
// may write, and the run parameters.
type env struct {
	root    string // repository checkout (read-only inputs)
	bin     string // built binaries
	work    string // working directory for this run, emptied first
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload run reports: its raw measurements, pooled
// over rounds and turned into metrics by finish; the operation tallies; the
// correctness verdict with its reason; and the timed layers of a traced
// run.
type outcome struct {
	setups  []float64            // launch-to-healthy times, s
	op      string               // which samples entry is the timed operation
	samples map[string][]float64 // latency samples by operation kind, ms
	cpu     float64              // CPU of the system over the measured intervals, s
	work    float64              // operations (or records) completed in them
	secs    float64              // total length of the measured intervals, s
	rss     []float64            // the system's peak RSS per round, MB
	rate    string               // detail name for work/secs, if any

	e2e, detail, layers map[string]metric
	attempted, failed   int64
	correct             bool
	why                 string
}

func newOutcome() *outcome {
	return &outcome{
		samples: map[string][]float64{},
		e2e:     map[string]metric{},
		detail:  map[string]metric{},
		layers:  map[string]metric{},
		correct: true,
	}
}

// finish turns the raw measurements into the end-to-end metrics and the
// latency quantiles of every operation kind into detail metrics.
// Latencies are quantiles of all samples, CPU and throughput totals over
// all measured intervals: a round that lands in a slow state then moves
// the result by its share, not all or nothing.
func (o *outcome) finish() {
	lat := o.samples[o.op]
	o.e2e["setup_s"] = metric{median(o.setups), "s"}
	o.e2e["op_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	o.e2e["throughput_per_s"] = metric{o.work / o.secs, "1/s"}
	o.e2e["cpu_s"] = metric{o.cpu, "s"}
	o.e2e["peak_rss_mb"] = metric{median(o.rss), "MB"}
	for kind, xs := range o.samples {
		o.detail[kind+"_p50_ms"] = metric{quantile(xs, 0.5), "ms"}
		o.detail[kind+"_p90_ms"] = metric{quantile(xs, 0.9), "ms"}
		o.detail[kind+"_p99_ms"] = metric{quantile(xs, 0.99), "ms"}
	}
	if o.rate != "" {
		o.detail[o.rate] = metric{o.work / o.secs, "rec/s"}
	}
}

// fail marks the run incorrect, keeping the first reason.
func (o *outcome) fail(format string, a ...any) {
	if o.correct {
		o.why = fmt.Sprintf(format, a...)
	}
	o.correct = false
}

// A daemon workload's run is rounds load rounds, each after setupRounds
// set-up-only rounds. Every round launches the topology and times its
// set-up; a load round then drives it for an equal share of the run's
// seconds and checks it. Spreading the set-up-only rounds over the run
// keeps one slow spell of the host from holding most of the set-up times.
// mergeRounds pools the rounds.
const (
	rounds      = 5
	setupRounds = 3
)

// roundFunc measures one round: it launches the topology and, when load is
// set, drives and checks it; then it stops it. k is the load round the
// launch belongs to, which picks the round's inputs. timeLayers is set on the
// round after whose load the layers are timed.
type roundFunc func(k int, load bool, tr *obs.Tracer, root *obs.Span, timeLayers bool) (*outcome, error)

// runRounds runs a workload's rounds, traced when e.trace is set.
func runRounds(e *env, name string, fn roundFunc) (*outcome, error) {
	var tr *obs.Tracer
	var buf bytes.Buffer
	if e.trace {
		tr = obs.NewTracer(&buf, nil)
	}
	root := tr.Start("workload/"+name, nil, map[string]any{"seed": e.seed, "rounds": rounds})
	var rs []*outcome
	for k := 0; k < rounds; k++ {
		for j := 0; j <= setupRounds; j++ {
			load := j == setupRounds
			o, err := fn(k, load, tr, root, e.trace && load && k == rounds-1)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", k*(setupRounds+1)+j, err)
			}
			rs = append(rs, o)
		}
	}
	o := mergeRounds(rs)
	if e.trace {
		root.End()
		if err := finishTrace(e, name, tr, &buf, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// mergeRounds pools the rounds' measurements and tallies, keeps the timed
// layers, and is incorrect if any round was.
func mergeRounds(rs []*outcome) *outcome {
	o := newOutcome()
	for _, r := range rs {
		o.setups = append(o.setups, r.setups...)
		if r.op != "" {
			o.op, o.rate = r.op, r.rate
		}
		for k, xs := range r.samples {
			o.samples[k] = append(o.samples[k], xs...)
		}
		o.cpu += r.cpu
		o.work += r.work
		o.secs += r.secs
		o.rss = append(o.rss, r.rss...)
		o.attempted += r.attempted
		o.failed += r.failed
		if !r.correct {
			o.fail("%s", r.why)
		}
		for k, m := range r.layers {
			o.layers[k] = m
		}
	}
	o.finish()
	return o
}

type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"backfill-bin", runBackfill},
	{"live-nginx", runLive},
	{"fanin-read", runFanin},
	{"paper-repro", runRepro},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	root := fs.String("root", ".", "repository checkout")
	bin := fs.String("bin", ".bench_build/bin", "directory of built binaries")
	work := fs.String("work", ".bench_build/run", "working directory, emptied first")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	absWork, err := filepath.Abs(*work)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(absWork); err != nil {
		return err
	}
	if err := os.MkdirAll(absWork, 0o755); err != nil {
		return err
	}
	e := &env{root: absRoot, bin: absBin, work: absWork, seed: *seed,
		seconds: *seconds, trace: *trace == 1}

	stamp, err := machineStamp(e)
	if err != nil {
		return err
	}
	start := time.Now()
	s0, t0 := cpuSteal()
	o, err := wl.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	s1, t1 := cpuSteal()
	o.detail["machine.steal_share"] = metric{stealShare(s0, t0, s1, t1), "ratio"}
	if !o.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %s\n", wl.name, o.why)
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if e.trace {
		res.Metrics = layerMetrics(o)
	} else {
		res.Metrics = o.e2e
	}
	for _, line := range []any{
		map[string]any{"machine": stamp},
		map[string]any{"workload": wl.name, "seed": e.seed, "trace": e.trace,
			"wall_s": time.Since(start).Seconds(), "detail": sorted(o.detail)},
		res,
	} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// sorted renders a metric map as an ordered list, for a stable detail line.
func sorted(m map[string]metric) []map[string]any {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]map[string]any, len(names))
	for i, k := range names {
		out[i] = map[string]any{"name": k, "value": m[k].Value, "unit": m[k].Unit}
	}
	return out
}
