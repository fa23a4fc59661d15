// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload against the public API — pktbuf,
// pktbuf/sim, pktbuf/router and pktbuf/serve — for a fixed time,
// checks that every output is correct, and prints its metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures (tracing off);
// with -trace 1 they are the per-layer figures of a traced run, whose
// spans are also written under -trace-dir. See README.md for the
// workloads, the metric definitions and the layer each metric moves.
//
// Usage:
//
//	perfbench -workload sim_adversarial -seed 1 -seconds 10 -trace 0
//	perfbench -workload all -seed 1 -seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// later claim is re-checked on it.
const heldOutSeed = 90001

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the gated end-to-end metrics. Every workload reports
// every one of them (tracing off); README.md defines each per workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"slots_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// infoMetrics are end-to-end figures that exist on some workloads
// only. They are printed by name with their unit on the workloads
// they apply to, and carried into the traced run's per-layer output.
var infoMetrics = []metricDef{
	{"fail_ratio", "ratio"},
	{"snapshot_s", "s"},
	{"restore_s", "s"},
	{"ckpt_pause_ms", "ms"},
}

// layerMetrics are reported by the traced run. A layer a workload
// does not exercise reports 0.
var layerMetrics = []metricDef{
	// pktbuf façade and internal/core.
	{"pktbuf.tickbatch_ns_per_slot", "ns"},
	{"sim.gen_ns_per_slot", "ns"},
	// Substrates, exact counts from Stats and Sizing.
	{"core.dram_path_share", "ratio"},
	{"sram.tail_highwater_ratio", "ratio"},
	{"sram.head_highwater_ratio", "ratio"},
	{"dss.rr_highwater_ratio", "ratio"},
	{"mma.max_skips", "count"},
	// Snapshot codec and checkpoints.
	{"snapshot.bytes", "B"},
	{"snapshot.ns_per_byte", "ns"},
	{"restore.ns_per_byte", "ns"},
	{"snapshot_s", "s"},
	{"restore_s", "s"},
	{"ckpt_pause_ms", "ms"},
	{"serve.ckpt_bytes", "B"},
	// Router engine.
	{"router.stepbatch_ns_per_slot", "ns"},
	{"router.offerbatch_ns_per_packet", "ns"},
	{"router.sync_ops_per_slot", "count"},
	{"router.commit_ratio", "ratio"},
	{"router.divergences", "count"},
	{"router.horizon_truncations", "count"},
	{"router.serial_fallback_slots", "count"},
	{"router.ingress_backlog_p99", "cells"},
	{"router.matches_per_slot", "count"},
	{"router.cells_per_packet", "count"},
	// Wire codec and sockets.
	{"wire.encode_ns_per_cell", "ns"},
	{"wire.decode_ns_per_cell", "ns"},
	{"wire.bytes_per_cell_up", "B"},
	{"wire.bytes_per_cell_down", "B"},
	{"tcp.writes_per_cell_up", "count"},
	{"tcp.writes_per_cell_down", "count"},
	{"tcp.write_ns_per_cell", "ns"},
	// Serving tier.
	{"client.submit_us_p50", "us"},
	{"client.submit_us_p99", "us"},
	{"serve.slots_per_cell", "count"},
	{"serve.ff_share", "ratio"},
	{"serve.batch_us_mean", "us"},
	{"serve.slots_per_batch", "count"},
	{"serve.rejects_ingress_full", "count"},
	{"serve.rejects_window_full", "count"},
	{"serve.rejects_draining", "count"},
	{"serve.rejects_bad_flow", "count"},
	// Runtime and load generator.
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"cpu.util", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"fail_ratio", "ratio"},
	// Tracing itself.
	{"trace.spans", "count"},
	{"trace.bench_self_share", "ratio"},
	{"trace.overhead_slots_per_s", "ratio"},
	{"trace.overhead_cells_per_s", "ratio"},
	{"trace.overhead_latency_p50_ms", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

// result is what a workload run produced.
type result struct {
	workload          string
	attempted, failed uint64
	problems          []string
	e2e               map[string]float64
	info              map[string]float64
	layer             map[string]float64
	notes             []string
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		e2e:      map[string]float64{},
		info:     map[string]float64{},
		layer:    map[string]float64{},
	}
}

// problem records a failed validity check; the run then reports
// correct=false and exits non-zero.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note records a human-readable line printed before the result.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadFunc runs one workload.
type workloadFunc func(o options, tr *tracer) (*result, error)

var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"sim_adversarial", runSimAdversarial},
	{"router_epoch", runRouterEpoch},
	{"serve_closed", runServeClosed},
	{"serve_paced", runServePaced},
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.Parse()
	o.trace = traceFlag != 0
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	var run []int
	for i, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			run = append(run, i)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	fmt.Printf("facts: seed=%d heldout_seed=%d cpus=%d gomaxprocs=%d go=%s network=loopback trace=%v seconds=%g\n",
		o.seed, heldOutSeed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.trace, o.seconds)
	var results []*result
	for _, i := range run {
		w := workloads[i]
		oo := o
		oo.workload = w.name
		var tr *tracer
		if o.trace {
			tr = newTracer()
		}
		res, err := w.run(oo, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.info["fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))
		res.layer["fail_ratio"] = res.info["fail_ratio"]
		if tr != nil {
			tr.report(res)
			path, err := tr.write(o.traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, o.seed))
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: write trace: %v\n", w.name, err)
				os.Exit(1)
			}
			res.note("trace: spans written to %s", path)
		}
		printHuman(res, o.trace)
		results = append(results, res)
	}
	line, ok := finalLine(results, o.trace)
	fmt.Println(line)
	if !ok {
		os.Exit(1)
	}
}

// printHuman prints one workload's figures by name and unit; a traced
// run adds the per-layer figures.
func printHuman(r *result, traced bool) {
	fmt.Printf("== %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, m := range e2eMetrics {
		if v, ok := r.e2e[m.name]; ok {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	for _, m := range infoMetrics {
		if v, ok := r.info[m.name]; ok {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	if traced {
		for _, m := range layerMetrics {
			fmt.Printf("  layer %-28s %14.6g %s\n", m.name, r.layer[m.name], m.unit)
		}
	}
	fmt.Printf("  attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("  FAIL: %s\n", p)
	}
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine renders the result line. One workload reports its metrics
// under their own names; several prefix each with the workload name.
func finalLine(results []*result, traced bool) (string, bool) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if len(r.problems) > 0 {
			out.Correct = false
		}
		prefix := ""
		if len(results) > 1 {
			prefix = r.workload + "/"
		}
		defs, vals := e2eMetrics, r.e2e
		if traced {
			defs, vals = layerMetrics, r.layer
		}
		for _, m := range defs {
			v := vals[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.problem("metric %s is not finite", m.name)
				out.Correct = false
				v = 0
			}
			out.Metrics[prefix+m.name] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only non-finite floats can fail, and they were replaced above.
		panic(err)
	}
	return string(b), out.Correct
}

// ---------------------------------------------------------------- windows

// window is one measured slice of a run's timed phase. Each figure is
// the median over windows, so one scheduler hiccup does not move a
// run's result.
type window struct {
	traced  bool
	seconds float64
	slots   float64
	cells   float64
	lat     []float64 // milliseconds
}

// planWindows returns the window count and length for a run: ten
// windows, alternating untraced and traced on a traced run so that it
// measures its own overhead.
func planWindows(o options) (int, time.Duration) {
	const n = 10
	return n, time.Duration(o.seconds / n * float64(time.Second))
}

// windowTraced reports whether window i of a run is traced.
func windowTraced(o options, i int) bool { return o.trace && i%2 == 1 }

// windowFigures are the end-to-end figures of a set of windows.
type windowFigures struct {
	slotsPS, cellsPS, p50, p99 float64
	samples, latWindows        int
}

// minWindowSamples is the fewest latency samples a window needs for
// its p99 to count: ten samples beyond the percentile.
const minWindowSamples = 1000

// summarize returns, over the windows whose traced flag matches, the
// median per-window throughput and the median per-window latency
// percentiles. Windows with too few samples for a p99 are left out of
// the latency medians.
func summarize(ws []window, traced bool) windowFigures {
	var f windowFigures
	var sps, cps, p50, p99 []float64
	for _, w := range ws {
		if w.traced != traced || w.seconds <= 0 {
			continue
		}
		sps = append(sps, w.slots/w.seconds)
		cps = append(cps, w.cells/w.seconds)
		f.samples += len(w.lat)
		if len(w.lat) >= minWindowSamples {
			p50 = append(p50, quantile(w.lat, 0.50))
			p99 = append(p99, quantile(w.lat, 0.99))
		}
	}
	f.slotsPS, f.cellsPS = median(sps), median(cps)
	f.p50, f.p99, f.latWindows = median(p50), median(p99), len(p99)
	return f
}

// fillWindowMetrics sets the end-to-end figures from the windows and,
// on a traced run, the tracing overhead between traced and untraced
// windows.
func fillWindowMetrics(r *result, o options, ws []window) {
	f := summarize(ws, false)
	r.e2e["slots_per_s"] = f.slotsPS
	r.e2e["cells_per_s"] = f.cellsPS
	r.e2e["latency_p50_ms"] = f.p50
	r.e2e["latency_p99_ms"] = f.p99
	r.note("latency samples in untraced windows: %d; windows with at least %d: %d",
		f.samples, minWindowSamples, f.latWindows)
	if f.latWindows == 0 {
		r.problem("no window has the %d latency samples a p99 needs", minWindowSamples)
	}
	if math.IsInf(f.p50, 1) || math.IsInf(f.p99, 1) {
		r.problem("refused cells push the latency percentiles past any limit")
	}
	var rates []string
	for _, w := range ws {
		rates = append(rates, fmt.Sprintf("%.4g", ratio(w.slots, w.seconds)))
	}
	r.note("slots/s per window: %s", strings.Join(rates, " "))
	if o.trace {
		t := summarize(ws, true)
		r.layer["trace.overhead_slots_per_s"] = relDiff(t.slotsPS, f.slotsPS)
		r.layer["trace.overhead_cells_per_s"] = relDiff(t.cellsPS, f.cellsPS)
		r.layer["trace.overhead_latency_p50_ms"] = relDiff(t.p50, f.p50)
	}
}

// ---------------------------------------------------------------- helpers

// quantile returns the q-quantile of xs (sorted in place) by the
// nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relDiff returns traced/untraced − 1, or 0 without a base.
func relDiff(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a process resource snapshot.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func takeUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{wall: time.Now(), cpu: processCPU(), alloc: m.TotalAlloc, gc: m.NumGC}
}

// fillRuntime sets the runtime and CPU per-layer metrics for the span
// between two snapshots; ops is the workload's unit of work.
func fillRuntime(r *result, a, b usage, ops float64) {
	wall := b.wall.Sub(a.wall).Seconds()
	r.layer["go.alloc_bytes_per_op"] = ratio(float64(b.alloc-a.alloc), ops)
	r.layer["go.gc_cycles"] = float64(b.gc - a.gc)
	r.layer["cpu.util"] = ratio((b.cpu - a.cpu).Seconds(), wall*float64(runtime.NumCPU()))
}

// medianSetup runs setup n times and returns the median duration of
// the timed part. Each call returns the duration it measured.
func medianSetup(n int, setup func(last bool) (time.Duration, error)) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Start every repetition from a collected heap so one setup's
		// garbage is not charged to the next.
		runtime.GC()
		d, err := setup(i == n-1)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// seedRand returns the workload's random source for one stream, so
// each generator draws from the run seed independently of the others.
func seedRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}
