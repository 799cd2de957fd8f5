package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/kernels"
	"dws/internal/rt"
)

// corun-batch: the paper's setting. Two programs co-run on one DWS
// system with 2 core slots and the arbiter off; program A repeats a
// coarse Mergesort, program B a fine-grained Cholesky. One round is a
// fixed number of runs of each; rounds repeat until the window ends.
const (
	msortN      = 500_000 // Mergesort input length
	msortInputs = 2
	msortRuns   = 4   // runs of program A per round
	cholN       = 192 // Cholesky matrix order
	cholInputs  = 4
	cholRuns    = 90 // runs of program B per round
	seqRepeats  = 5  // sequential reference runs per input
)

// corunProg is one co-running program with its inputs and references.
type corunProg struct {
	prog  *rt.Program
	runs  int
	seqMS float64 // sequential reference time (refPool.best)

	// pending is the benchmark-clock time (ns) of this program's
	// outstanding Run call, 0 when none: the start of a core handoff.
	pending atomic.Int64
	runID   atomic.Uint64

	newRun func(i int) (task rt.Task, verify func() error)
}

type corunEnv struct {
	sys  *rt.System
	a, b *corunProg

	msIn [][]int32   // Mergesort inputs
	chIn [][]float64 // Cholesky inputs
	refs refPool

	cur    atomic.Pointer[tracer]
	obsMu  sync.Mutex
	handMS []float64 // core handoffs seen while tracing
	woken  atomic.Int64
	nw     atomic.Int64
	nextID atomic.Uint64
}

func setupCorun(seed int64, refs refPool) (env, error) {
	e := &corunEnv{}
	sys, err := rt.NewSystem(rt.Config{
		Cores: coreSlots, Programs: 2, Policy: rt.DWS, Observer: e.observe,
	})
	if err != nil {
		return nil, err
	}
	e.sys = sys
	if e.a, err = e.newProgram("A-mergesort", msortRuns); err != nil {
		e.close()
		return nil, err
	}
	if e.b, err = e.newProgram("B-cholesky", cholRuns); err != nil {
		e.close()
		return nil, err
	}

	// Inputs from the seed, each with its sequential reference output.
	e.refs = refs
	for i := 0; i < msortInputs; i++ {
		e.msIn = append(e.msIn, kernels.RandSlice(msortN, seed*100+int64(i)))
	}
	for i := 0; i < cholInputs; i++ {
		e.chIn = append(e.chIn, kernels.SPDMatrix(cholN, seed*100+50+int64(i)))
	}
	msRef, chRef := e.sampleRefs(seqRepeats)
	for i, ref := range msRef {
		if !kernels.IsSorted(ref) {
			e.close()
			return nil, fmt.Errorf("sequential Mergesort reference %d is not sorted", i)
		}
	}
	for i, ref := range chRef {
		if ref == nil {
			e.close()
			return nil, fmt.Errorf("Cholesky input %d is not positive definite", i)
		}
		if res := kernels.CholeskyResidual(ref, e.chIn[i], cholN); res > 1e-8 {
			e.close()
			return nil, fmt.Errorf("sequential Cholesky reference %d has residual %g", i, res)
		}
	}
	msWork := make([]int32, msortN)
	e.a.newRun = func(i int) (rt.Task, func() error) {
		k := i % msortInputs
		copy(msWork, e.msIn[k])
		return kernels.MergesortTask(msWork), func() error {
			if !kernels.IsSorted(msWork) || !slices.Equal(msWork, msRef[k]) {
				return fmt.Errorf("mergesort run on input %d: output differs from the sequential reference", k)
			}
			return nil
		}
	}

	chWork := make([]float64, cholN*cholN)
	e.b.newRun = func(i int) (rt.Task, func() error) {
		k := i % cholInputs
		copy(chWork, e.chIn[k])
		ok := new(bool)
		return kernels.CholeskyTask(chWork, cholN, ok), func() error {
			if !*ok {
				return fmt.Errorf("cholesky run on input %d reported a non-positive pivot", k)
			}
			if d := lowerDiff(chWork, chRef[k], cholN); d > 1e-9 {
				return fmt.Errorf("cholesky run on input %d differs from the sequential factor by %g", k, d)
			}
			return nil
		}
	}

	// Warm-up: one untimed round.
	for _, r := range e.round(nil) {
		if r.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return e, nil
}

// sampleRefs times repeats sequential runs of every input, adds them to
// the reference pool, refreshes both programs' references, and returns
// the outputs of the last runs (a nil Cholesky output means the input was
// not positive definite).
func (e *corunEnv) sampleRefs(repeats int) (msOut [][]int32, chOut [][]float64) {
	for _, in := range e.msIn {
		var out []int32
		for r := 0; r < repeats; r++ {
			out = slices.Clone(in)
			e.refs.add("Mergesort", timeQuiet(func() { kernels.MergesortSeq(out) }))
		}
		msOut = append(msOut, out)
	}
	for _, in := range e.chIn {
		var out []float64
		for r := 0; r < repeats; r++ {
			out = slices.Clone(in)
			ok := true
			e.refs.add("Cholesky", timeQuiet(func() { ok = kernels.CholeskySeq(out, cholN) }))
			if !ok {
				out = nil
			}
		}
		chOut = append(chOut, out)
	}
	e.a.seqMS, e.b.seqMS = e.refs.best("Mergesort"), e.refs.best("Cholesky")
	return msOut, chOut
}

func (e *corunEnv) newProgram(name string, runs int) (*corunProg, error) {
	p, err := e.sys.NewProgram(name)
	if err != nil {
		return nil, err
	}
	return &corunProg{prog: p, runs: runs}, nil
}

func (e *corunEnv) close() {
	if e.sys != nil {
		e.sys.Close()
	}
}

// lowerDiff is the largest relative difference between the lower
// triangles of two row-major n×n matrices.
func lowerDiff(a, b []float64, n int) float64 {
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			x, y := a[i*n+j], b[i*n+j]
			if d := math.Abs(x-y) / math.Max(1, math.Abs(y)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// observe is the system's rt.Config.Observer. While tracing it measures
// core handoffs (a program's Run call to its next wake or claim) and the
// coordinator's wake yield; otherwise it returns at once.
func (e *corunEnv) observe(ev rt.ObsEvent) {
	tr := e.cur.Load()
	if tr == nil {
		return
	}
	var p *corunProg
	for _, q := range []*corunProg{e.a, e.b} {
		if q != nil && int32(q.prog.Slot()+1) == ev.Prog {
			p = q
		}
	}
	switch ev.Kind {
	case rt.ObsCoordTick:
		e.woken.Add(int64(ev.Woken))
		e.nw.Add(int64(ev.NW))
	case rt.ObsWake, rt.ObsClaim:
		if p == nil {
			return
		}
		if t0 := p.pending.Swap(0); t0 != 0 {
			now := tr.ns(time.Now())
			tr.addNS(p.runID.Load(), "coord.handoff", "rt.run", t0, now)
			e.obsMu.Lock()
			e.handMS = append(e.handMS, float64(now-t0)/1e6)
			e.obsMu.Unlock()
		}
	case rt.ObsRunDone:
		if p != nil {
			p.pending.Store(0) // the run needed no handoff
		}
	}
}

// runRec is one timed program run; err is nil when its output verified.
type runRec struct {
	prog *corunProg
	ms   float64
	err  error
}

// round runs both programs' fixed run counts concurrently, one goroutine
// per program, and returns the runs once both are done.
func (e *corunEnv) round(tr *tracer) []runRec {
	var (
		mu   sync.Mutex
		recs []runRec
		wg   sync.WaitGroup
	)
	for _, p := range []*corunProg{e.a, e.b} {
		wg.Add(1)
		go func(p *corunProg) {
			defer wg.Done()
			for i := 0; i < p.runs; i++ {
				task, verify := p.newRun(i)
				id := e.nextID.Add(1)
				p.runID.Store(id)
				start := time.Now()
				if tr != nil {
					p.pending.Store(tr.ns(start))
				}
				err := p.prog.Run(task)
				end := time.Now()
				if tr != nil {
					tr.add(id, "rt.run", "", start, end)
				}
				if err == nil {
					err = verify()
				}
				mu.Lock()
				recs = append(recs, runRec{prog: p, ms: durMS(end.Sub(start)), err: err})
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	return recs
}

func (e *corunEnv) stats() rt.Stats {
	a, b := e.a.prog.Stats(), e.b.prog.Stats()
	return rt.Stats{
		Steals: a.Steals + b.Steals, FailedSteals: a.FailedSteals + b.FailedSteals,
		Sleeps: a.Sleeps + b.Sleeps, Wakes: a.Wakes + b.Wakes,
		Claims: a.Claims + b.Claims, Reclaims: a.Reclaims + b.Reclaims,
		Runs: a.Runs + b.Runs, Spawns: a.Spawns + b.Spawns,
	}
}

func (e *corunEnv) measure(seconds float64, tr *tracer) (*window, error) {
	e.handMS = nil
	e.woken.Store(0)
	e.nw.Store(0)
	if tr != nil {
		e.cur.Store(tr)
		defer e.cur.Store(nil)
	}
	before := e.stats()
	goBefore := readGo()
	cpuBefore := cpuSeconds()
	start := time.Now()
	var (
		recs      []runRec
		makespans []float64
	)
	for len(makespans) == 0 || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		rs := e.round(tr)
		makespans = append(makespans, time.Since(t0).Seconds())
		recs = append(recs, rs...)
	}
	elapsed := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpuBefore
	goAfter := readGo()
	after := e.stats()
	// Sample the references again, so they span the window rather than
	// only the moment of set-up.
	e.sampleRefs(1)

	w := &window{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
	var all, gold, msMS, slow []float64
	verified := 0
	for _, r := range recs {
		all = append(all, r.ms)
		if r.prog == e.b {
			gold = append(gold, r.ms)
		} else {
			msMS = append(msMS, r.ms)
		}
		slow = append(slow, r.ms/r.prog.seqMS)
		if r.err == nil {
			verified++
		} else {
			w.checks = append(w.checks, r.err.Error())
		}
	}
	n := len(recs)
	w.attempted, w.failed = n, n-verified
	w.e2e["latency_p50_ms"] = pct(all, 50)
	w.e2e["latency_p99_ms"] = pct(all, 99)
	w.e2e["gold_p99_ms"] = pct(gold, 99)
	w.e2e["corun_slowdown_p50"] = pct(slow, 50)
	w.e2e["corun_slowdown_p99"] = pct(slow, 99)
	w.e2e["ok_rate"] = ratio(float64(verified), float64(n))
	w.e2e["goodput_jps"] = float64(verified) / elapsed
	w.e2e["makespan_s"] = median(makespans)
	w.e2e["cpu_ms_per_job"] = ratio(cpu*1e3, float64(n))
	w.e2e["rss_peak_mb"] = rssPeakMB()
	w.info["runs"] = n
	w.info["rounds"] = len(makespans)
	w.info["latency_beyond_p99"] = beyond(all, 99)
	w.info["seq_ms"] = map[string]float64{"Mergesort": e.a.seqMS, "Cholesky": e.b.seqMS}
	w.info["run_p50_ms"] = map[string]float64{"Mergesort": pct(msMS, 50), "Cholesky": pct(gold, 50)}
	if tr == nil {
		return w, nil
	}

	L := w.layers
	e.obsMu.Lock()
	hand := slices.Clone(e.handMS)
	e.obsMu.Unlock()
	L["coord.handoff_ms_p50"] = pct(hand, 50)
	L["coord.handoff_ms_p99"] = pct(hand, 99)
	L["coord.wake_yield"] = ratio(float64(e.woken.Load()), float64(e.nw.Load()))
	runs := float64(after.Runs - before.Runs)
	L["coord.wakes_per_run"] = ratio(float64(after.Wakes-before.Wakes), runs)
	L["coord.sleeps_per_run"] = ratio(float64(after.Sleeps-before.Sleeps), runs)
	L["coord.claims_per_run"] = ratio(float64(after.Claims-before.Claims), runs)
	L["coord.reclaims_per_run"] = ratio(float64(after.Reclaims-before.Reclaims), runs)
	L["rt.run_ms_p50"] = pct(all, 50)
	L["rt.run_ms_p99"] = pct(all, 99)
	steals, failed := float64(after.Steals-before.Steals), float64(after.FailedSteals-before.FailedSteals)
	L["rt.steal_yield"] = ratio(steals, steals+failed)
	L["rt.failed_steals_per_run"] = ratio(failed, runs)
	L["rt.tasks_per_run"] = ratio(float64(after.Spawns-before.Spawns), runs)
	L["kernels.seq_ms.Mergesort"] = e.a.seqMS
	L["kernels.seq_ms.Cholesky"] = e.b.seqMS
	goLayer(L, goBefore, goAfter, n)
	w.info["handoffs"] = len(hand)
	return w, nil
}
