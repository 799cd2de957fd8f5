// Tier-2 perf baselines: gated generators that run a fixed battery of
// kernel, runtime-overhead, and deque micro-benchmarks through
// testing.Benchmark and write the results as committed JSON baselines.
// They are no-op tests unless an output path is named:
//
//	BENCH_SCHEDCHECK_OUT=BENCH_schedcheck.json go test -run TestWriteSchedcheckBench .
//	BENCH_HOTPATH_OUT=BENCH_hotpath.json       go test -run TestWriteHotpathBench .
//
// BENCH_schedcheck.json is the historical core battery (kernels + deque);
// BENCH_hotpath.json adds the rt-overhead benchmarks (the same kernel
// under the live runtime vs sequentially, per policy) and is the baseline
// the CI regression gate (cmd/benchgate) enforces: >25% ns/op or any
// allocs/op increase fails the bench job.
//
// The battery deliberately uses small fixed problem sizes so one pass
// stays in the seconds range on a 1-core CI runner; the numbers are for
// trend comparison between commits on the same runner class, not for
// absolute claims.
package dws_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dws/internal/bench"
	"dws/internal/deque"
	"dws/internal/kernels"
	"dws/internal/rt"
	"dws/internal/topo"
)

const (
	benchFFTN   = 1 << 12
	benchSortN  = 1 << 14
	benchMatN   = 64
	benchHeatW  = 128
	benchHeatH  = 128
	benchHeatIt = 20
)

// runEntry runs one benchmark with allocation reporting (the in-process
// equivalent of -benchmem: testing.Benchmark always samples the allocation
// counters, ReportAllocs makes the intent explicit) and flattens the
// result into the committed JSON shape.
// benchRuns is how many times each entry is measured; the entry records
// the fastest run. Alloc counters are deterministic across runs, but
// ns/op on a shared box is one-sided noise (interference only ever adds
// time), so min-of-N is the stable statistic to gate on.
const benchRuns = 3

func runEntry(name string, fn func(b *testing.B)) bench.BenchEntry {
	var best bench.BenchEntry
	for i := 0; i < benchRuns; i++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		e := bench.BenchEntry{
			Name:        name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if i == 0 || e.NsPerOp < best.NsPerOp {
			best = e
		}
	}
	return best
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// rtKernelBench benchmarks one kernel run end-to-end on the live runtime
// under pol: 4 core slots, one program, per-iteration input reset outside
// nothing (the copy is part of the op, exactly like the -seq entries, so
// rt-vs-seq ratios are apples to apples).
func rtKernelBench(pol rt.Policy, mk func(b *testing.B) (task rt.Task, reset func())) func(b *testing.B) {
	return rtKernelBenchCfg(rt.Config{Policy: pol}, mk)
}

// rtKernelBenchCfg fills the fixed 4-core single-program harness around
// cfg's policy/topology choices.
func rtKernelBenchCfg(cfg rt.Config, mk func(b *testing.B) (task rt.Task, reset func())) func(b *testing.B) {
	return func(b *testing.B) {
		cfg.Cores, cfg.Programs = 4, 1
		cfg.TSleep, cfg.CoordPeriod = 2, 2*time.Millisecond
		sys, err := rt.NewSystem(cfg)
		if err != nil {
			b.Fatalf("NewSystem: %v", err)
		}
		defer sys.Close()
		p, err := sys.NewProgram("bench")
		if err != nil {
			b.Fatalf("NewProgram: %v", err)
		}
		task, reset := mk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reset()
			if err := p.Run(task); err != nil {
				b.Fatalf("Run: %v", err)
			}
		}
	}
}

func fftRT(b *testing.B) (rt.Task, func()) {
	src := kernels.RandComplex(benchFFTN, 1)
	buf := make([]complex128, benchFFTN)
	return kernels.FFTTask(buf), func() { copy(buf, src) }
}

func mergesortRT(b *testing.B) (rt.Task, func()) {
	src := kernels.RandSlice(benchSortN, 1)
	buf := make([]int32, benchSortN)
	return kernels.MergesortTask(buf), func() { copy(buf, src) }
}

func choleskyRT(b *testing.B) (rt.Task, func()) {
	src := kernels.SPDMatrix(benchMatN, 1)
	buf := make([]float64, len(src))
	var ok bool
	return kernels.CholeskyTask(buf, benchMatN, &ok), func() { copy(buf, src) }
}

// coreBattery is the historical BENCH_schedcheck.json battery.
func coreBattery() []namedBench {
	return []namedBench{
		{"kernels/fft-seq-4096", func(b *testing.B) {
			src := kernels.RandComplex(benchFFTN, 1)
			buf := make([]complex128, benchFFTN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				kernels.FFTSeq(buf)
			}
		}},
		{"kernels/mergesort-seq-16384", func(b *testing.B) {
			src := kernels.RandSlice(benchSortN, 1)
			buf := make([]int32, benchSortN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				kernels.MergesortSeq(buf)
			}
		}},
		{"kernels/cholesky-seq-64", func(b *testing.B) {
			src := kernels.SPDMatrix(benchMatN, 1)
			buf := make([]float64, len(src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				if !kernels.CholeskySeq(buf, benchMatN) {
					b.Fatal("cholesky failed on SPD input")
				}
			}
		}},
		{"kernels/lu-seq-64", func(b *testing.B) {
			src := kernels.DiagonallyDominant(benchMatN, 1)
			buf := make([]float64, len(src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				if !kernels.LUSeq(buf, benchMatN) {
					b.Fatal("lu failed on diagonally dominant input")
				}
			}
		}},
		{"kernels/ge-seq-64", func(b *testing.B) {
			a := kernels.DiagonallyDominant(benchMatN, 1)
			rhs := kernels.RandMatrix(benchMatN, 2)[:benchMatN]
			abuf := make([]float64, len(a))
			bbuf := make([]float64, benchMatN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(abuf, a)
				copy(bbuf, rhs)
				if kernels.GESeq(abuf, bbuf, benchMatN) == nil {
					b.Fatal("ge failed on diagonally dominant input")
				}
			}
		}},
		{"kernels/heat-seq-128x128x20", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := kernels.NewGrid(benchHeatW, benchHeatH)
				b.StartTimer()
				kernels.HeatSeq(g, benchHeatIt)
			}
		}},
		{"kernels/fft-rt-dws-4096", rtKernelBench(rt.DWS, fftRT)},
		{"deque/push-pop", func(b *testing.B) {
			d := deque.New[int](8)
			v := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Push(&v)
				d.Pop()
			}
		}},
		{"deque/push-steal", func(b *testing.B) {
			d := deque.New[int](8)
			v := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Push(&v)
				d.Steal()
			}
		}},
		{"deque/locked-push-pop", func(b *testing.B) {
			d := deque.NewLocked[int](8)
			v := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Push(&v)
				d.Pop()
			}
		}},
	}
}

// hotpathBattery is the rt-overhead extension: three kernels end-to-end on
// the live runtime under DWS and ABP (fft-rt-dws already sits in the core
// battery), plus the thief-side deque micro-benchmarks. Comparing each
// kernel entry against its -seq sibling isolates the scheduling overhead
// the paper claims is small.
func hotpathBattery() []namedBench {
	// stealHeavy drains a full batch through Steal per op — the thief-side
	// path only — so the steal CAS dominates the measurement.
	const stealBatch = 256
	stealHeavy := func(d *deque.Deque[int]) func(b *testing.B) {
		return func(b *testing.B) {
			v := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < stealBatch; j++ {
					d.Push(&v)
				}
				for j := 0; j < stealBatch; j++ {
					if d.Steal() == nil {
						b.Fatal("single-threaded steal lost an element")
					}
				}
			}
		}
	}
	// contendedSteal pits nThieves live steal loops against one owner
	// cycling a fixed batch through Push/Pop — the N-thieves-vs-one-owner
	// shape two-phase victim selection concentrates on a loaded socket's
	// deques. Elements carry their slot index; an epoch-stamped claim
	// array separates unique hand-outs from duplicates, and a duplicate
	// fails the benchmark: the Chase–Lev deque hands each element out
	// exactly once.
	const contThieves = 3
	const contBatch = 256
	contendedSteal := func(b *testing.B) {
		d := deque.New[int](contBatch)
		ids := make([]int, contBatch)
		claims := make([]atomic.Int64, contBatch)
		for j := range ids {
			ids[j] = j
		}
		var epoch, taken, dups atomic.Int64
		// consume claims one hand-out: the first claim of a slot per
		// epoch is unique, every other is a duplicate. The CAS retry
		// loop is bounded (claims only ever advance toward the current
		// epoch).
		consume := func(p *int) bool {
			if p == nil {
				return false
			}
			for {
				e := epoch.Load()
				prev := claims[*p].Load()
				if prev >= e {
					dups.Add(1)
					return true
				}
				if claims[*p].CompareAndSwap(prev, e) {
					taken.Add(1)
					return true
				}
			}
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for t := 0; t < contThieves; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if !consume(d.Steal()) {
						runtime.Gosched()
					}
				}
			}()
		}
		var goal int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch.Add(1)
			goal += contBatch
			for j := range ids {
				d.Push(&ids[j])
			}
			for taken.Load() < goal {
				if !consume(d.Pop()) {
					runtime.Gosched()
				}
			}
		}
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
		if n := dups.Load(); n > 0 {
			b.Fatalf("deque handed out %d duplicate elements", n)
		}
	}
	return []namedBench{
		{"kernels/fft-rt-abp-4096", rtKernelBench(rt.ABP, fftRT)},
		{"kernels/mergesort-rt-dws-16384", rtKernelBench(rt.DWS, mergesortRT)},
		{"kernels/mergesort-rt-abp-16384", rtKernelBench(rt.ABP, mergesortRT)},
		{"kernels/cholesky-rt-dws-64", rtKernelBench(rt.DWS, choleskyRT)},
		{"kernels/cholesky-rt-abp-64", rtKernelBench(rt.ABP, choleskyRT)},
		{"deque/steal-heavy-chaselev", stealHeavy(deque.New[int](stealBatch))},
		{"deque/contended-steal-chaselev", contendedSteal},
		// The socket twin of fft-rt-dws-4096: same kernel, same machine,
		// but with 2-core sockets so placement and two-phase victim
		// selection are live. Gating it next to the flat entry keeps the
		// locality path honest — it must stay alloc-identical (the victim
		// order is precomputed per worker) and within the ns/op tolerance.
		{"kernels/fft-rt-dws-socket-4096", rtKernelBenchCfg(rt.Config{
			Policy: rt.DWS, Topology: topo.Uniform(4, 2),
		}, fftRT)},
	}
}

func writeBattery(t *testing.T, out string, battery []namedBench) {
	f := &bench.BenchFile{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, bb := range battery {
		e := runEntry(bb.name, bb.fn)
		f.Entries = append(f.Entries, e)
		t.Logf("%-34s %10d iters  %12.1f ns/op  %6d B/op  %4d allocs/op",
			e.Name, e.Iters, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	if err := bench.WriteBenchFile(out, f); err != nil {
		t.Fatalf("write %s: %v", out, err)
	}
	fmt.Printf("wrote %d benchmark entries to %s\n", len(f.Entries), out)
}

// TestWriteSchedcheckBench generates the historical BENCH_schedcheck.json
// battery. Gated on BENCH_SCHEDCHECK_OUT so a plain `go test ./...` never
// pays for a benchmark pass.
func TestWriteSchedcheckBench(t *testing.T) {
	out := os.Getenv("BENCH_SCHEDCHECK_OUT")
	if out == "" {
		t.Skip("set BENCH_SCHEDCHECK_OUT=<path> to generate the perf baseline")
	}
	writeBattery(t, out, coreBattery())
}

// TestWriteHotpathBench generates BENCH_hotpath.json — the core battery
// plus the rt-overhead benchmarks — which the CI bench job regenerates
// and gates against the committed copy via cmd/benchgate.
func TestWriteHotpathBench(t *testing.T) {
	out := os.Getenv("BENCH_HOTPATH_OUT")
	if out == "" {
		t.Skip("set BENCH_HOTPATH_OUT=<path> to generate the hotpath baseline")
	}
	writeBattery(t, out, append(coreBattery(), hotpathBattery()...))
}

// treeTask builds a shared binary spawn tree of the given depth (2^(d+1)−1
// task executions) out of closures constructed once, so repeated runs
// allocate nothing in user code and any allocation the measurement sees
// belongs to the runtime.
func treeTask(depth int, leaves *atomic.Int64) rt.Task {
	if depth == 0 {
		return func(*rt.Ctx) { leaves.Add(1) }
	}
	child := treeTask(depth-1, leaves)
	return func(c *rt.Ctx) {
		c.Spawn(child)
		c.Spawn(child)
		c.Sync()
	}
}

// TestSpawnExecuteSteadyStateZeroAlloc proves the per-task hot path is
// steady-state allocation-free: once the free-lists are warm, a run's
// allocation count is a small constant (root frame, done channel, root
// node, Run's ticker) regardless of how many tasks the run spawns. A
// depth-9 tree executes 992 more tasks than a depth-4 tree; if Spawn or
// execute allocated per task, the delta would be ≥ 992 allocs/run.
func TestSpawnExecuteSteadyStateZeroAlloc(t *testing.T) {
	sys, err := rt.NewSystem(rt.Config{Cores: 4, Programs: 1, Policy: rt.ABP})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	p, err := sys.NewProgram("alloc")
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}

	var leaves atomic.Int64
	shallow := treeTask(4, &leaves) // 31 tasks
	deep := treeTask(9, &leaves)    // 1023 tasks

	measure := func(task rt.Task) float64 {
		// Warm every worker's free-lists (across runs all four workers
		// end up executing tasks) before measuring.
		for i := 0; i < 50; i++ {
			if err := p.Run(task); err != nil {
				t.Fatalf("warmup Run: %v", err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := p.Run(task); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}

	aShallow := measure(shallow)
	aDeep := measure(deep)
	t.Logf("allocs/run: depth-4 (31 tasks) = %.1f, depth-9 (1023 tasks) = %.1f", aShallow, aDeep)

	// Per-run constant overhead only: generous bound, but a per-task
	// allocation would blow through it by orders of magnitude.
	if aDeep > 40 {
		t.Errorf("deep run allocates %.1f allocs/run, want ≤ 40 (per-task allocation leak?)", aDeep)
	}
	// The real zero-alloc proof: 992 extra task executions must not add
	// allocations beyond pool-warmup jitter.
	if diff := aDeep - aShallow; diff > 8 {
		t.Errorf("992 extra tasks added %.1f allocs/run, want ≤ 8: Spawn/execute is not zero-alloc", diff)
	}
}
