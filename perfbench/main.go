// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload with a seed and prints, as the last
// line of standard output, a JSON object with the keys correct,
// attempted, failed and metrics:
//
//	go run . --workload serve-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the gated end-to-end metrics, measured
// with tracing off; the line before the result, starting "info ", carries
// the ungated ones with their units, the host fingerprint and sample
// counts. With --trace 1 the run is split into an untraced and a
// traced half of equal length; the metrics are the per-layer metrics of
// the traced half plus the tracing overhead (traced minus untraced) on
// every end-to-end metric. A run whose output checks fail exits 1.
//
// The workloads, metrics and layer predictions are documented in
// README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// coreSlots is the core-slot count of every workload: a constant of the
// benchmark, never read from the host. GOMAXPROCS is set to it, and the
// load generators run no more goroutines in parallel than it allows.
const coreSlots = 2

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics, printed by every untraced run of
// every workload and listed in BENCHMARK.json. README.md gives each one's
// meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_rate", "ratio"},
	{"goodput_jps", "jobs/s"},
	{"cpu_ms_per_job", "ms"},
	{"rss_peak_mb", "MB"},
}

// ungated lists the remaining end-to-end metrics. Every untraced run
// prints them on its info line, with their units, but they are not in the
// result line: their spread between runs of the same code is wider than
// any bound could tolerate (README.md gives the figures).
var ungated = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"gold_p99_ms", "ms"},
	{"corun_slowdown_p50", "ratio"},
	{"corun_slowdown_p99", "ratio"},
	{"makespan_s", "s"},
}

// kernelNames are the catalog kernels some workload runs; each has a
// kernels.seq_ms.<name> per-layer metric.
var kernelNames = []string{"Cholesky", "FFT", "Heat", "Mergesort", "PNN"}

// perLayer lists the per-layer metrics, printed by every traced run of
// every workload; a layer a workload bypasses reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gen.lag_p99_ms", "ms"},
		{"gen.net_ms_p50", "ms"},
		{"router.self_ms_p50", "ms"},
		{"router.self_ms_p99", "ms"},
		{"router.hop_ms_p50", "ms"},
		{"server.self_ms_p50", "ms"},
		{"server.self_ms_p99", "ms"},
		{"server.refuse_ms_p99", "ms"},
		{"admission.wait_ms_p50", "ms"},
		{"admission.wait_ms_p99", "ms"},
		{"admission.reject_ratio.early_reject", "ratio"},
		{"admission.reject_ratio.queue_full", "ratio"},
		{"admission.reject_ratio.overload", "ratio"},
		{"admission.reject_ratio.shed", "ratio"},
		{"admission.admit_yield", "ratio"},
		{"arbiter.changes_per_s", "1/s"},
		{"arbiter.gold_held_share", "ratio"},
		{"arbiter.gold_entitled_share", "ratio"},
		{"coord.handoff_ms_p50", "ms"},
		{"coord.handoff_ms_p99", "ms"},
		{"coord.wake_yield", "ratio"},
		{"coord.wakes_per_run", "count"},
		{"coord.sleeps_per_run", "count"},
		{"coord.claims_per_run", "count"},
		{"coord.reclaims_per_run", "count"},
		{"rt.run_ms_p50", "ms"},
		{"rt.run_ms_p99", "ms"},
		{"rt.steal_yield", "ratio"},
		{"rt.failed_steals_per_run", "count"},
		{"rt.tasks_per_run", "count"},
		{"sim.scenario_s", "s"},
		{"sim.federation_s", "s"},
		{"sim.alloc_mb", "MB"},
		{"sim.jobs_per_s", "jobs/s"},
		{"go.sched_lat_p99_us", "us"},
		{"go.alloc_kb_per_job", "KB"},
		{"go.gc_cpu_share", "ratio"},
	}
	for _, k := range kernelNames {
		defs = append(defs, metricDef{"kernels.seq_ms." + k, "ms"})
	}
	for _, m := range slices.Concat(endToEnd, ungated) {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}()

// window is what one timed measurement window of a workload yields.
type window struct {
	e2e       map[string]float64 // every endToEnd metric except setup_s
	layers    map[string]float64 // per-layer metrics (traced windows only)
	attempted int                // jobs, runs or replays attempted
	failed    int                // of those, how many failed outright
	checks    []string           // failed output checks; empty when correct
	info      map[string]any     // sample counts and other context
}

// workload is one named benchmark input. setup builds the system under
// test; work that is not timed per job goes there and is charged to
// setup_s.
type workload struct {
	name  string
	setup func(seed int64, refs refPool) (env, error)
}

// refPool collects same-process sequential reference times by kernel,
// sampled at each of a run's set-ups and again after each timed window.
// The reference is the fastest sample: anything else running on the host
// only adds time, and it comes and goes on a scale of seconds.
type refPool map[string][]float64

func (r refPool) add(kernel string, ms float64) { r[kernel] = append(r[kernel], ms) }

func (r refPool) best(kernel string) float64 { return slices.Min(r[kernel]) }

// env is a set-up workload. measure runs one timed window against it,
// traced when tr is non-nil.
type env interface {
	measure(seconds float64, tr *tracer) (*window, error)
	close()
}

var workloads = []workload{
	{"serve-small", setupServeSmall},
	{"serve-overload", setupServeOverload},
	{"corun-batch", setupCorun},
	{"sim-replay", setupSimReplay},
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up environment is the one measured.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark run and returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	traceOut := fs.String("trace-out", ".bench_build/trace", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(coreSlots)

	var (
		e     env
		setup []float64
		refs  = refPool{}
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		e, err = wl.setup(*seed, refs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", wl.name, err)
			return 1
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer e.close()

	res := result{Metrics: map[string]metricValue{}}
	info := map[string]any{"workload": wl.name, "seed": *seed, "host": fingerprint(),
		"setup_s_samples": setup}
	var win *window
	if *trace == 0 {
		w, err := e.measure(*seconds, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		w.e2e["setup_s"] = median(setup)
		for _, m := range endToEnd {
			v, ok := w.e2e[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", wl.name, m.name)
				return 1
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		extra := map[string]metricValue{}
		for _, m := range ungated {
			extra[m.name] = metricValue{w.e2e[m.name], m.unit}
		}
		info["ungated_metrics"] = extra
		win = w
	} else {
		base, err := e.measure(*seconds/2, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s untraced half: %v\n", wl.name, err)
			return 1
		}
		tr := newTracer()
		w, err := e.measure(*seconds/2, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced half: %v\n", wl.name, err)
			return 1
		}
		for _, m := range slices.Concat(endToEnd, ungated) {
			if m.name != "setup_s" {
				w.layers["overhead."+m.name] = w.e2e[m.name] - base.e2e[m.name]
			}
		}
		w.layers["overhead.setup_s"] = 0 // set-up is never traced
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{w.layers[m.name], m.unit}
		}
		for k := range w.layers {
			if _, ok := res.Metrics[k]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s measured undeclared metric %s\n", wl.name, k)
				return 1
			}
		}
		path, err := tr.writeFile(*traceOut, fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		info["spans_file"] = path
		info["spans"] = tr.len()
		base.checks = append(base.checks, w.checks...)
		w.checks = base.checks
		w.attempted += base.attempted
		w.failed += base.failed
		win = w
	}
	for k, v := range win.info {
		info[k] = v
	}
	info["failed_checks"] = win.checks
	res.Attempted = win.attempted
	res.Failed = win.failed
	res.Correct = len(win.checks) == 0 && win.failed == 0 && win.attempted > 0

	if line, err := json.Marshal(info); err == nil {
		fmt.Fprintf(stdout, "info %s\n", line)
	}
	for _, c := range win.checks {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
