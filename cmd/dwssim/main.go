// Command dwssim runs one simulated scenario — any subset of the Table 2
// benchmarks co-running under one policy — with every machine and
// scheduler knob exposed, and optional event tracing.
//
// Examples:
//
//	dwssim -bench p-1,p-8 -policy DWS
//	dwssim -bench p-6 -policy ABP -runs 6
//	dwssim -bench p-1,p-8 -policy DWS -tsleep 128 -trace | head -100
//
// With -scenario, dwssim instead replays a scenario trace open-loop on
// the virtual clock — a catalog name (see internal/scenario) or a
// .jsonl/.csv trace file — under the configured machine and policy:
//
//	dwssim -scenario bursty-pareto -policy GO
//	dwssim -scenario trace.jsonl -cores 32
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dws/internal/scenario"
	"dws/internal/sim"
	"dws/internal/task"
	"dws/internal/trace"
	"dws/internal/workload"
)

func main() {
	var (
		benchIDs  = flag.String("bench", "p-1,p-8", "comma-separated Table 2 IDs (p-1..p-8)")
		policy    = flag.String("policy", "DWS", "ABP|EP|DWS|DWS-NC|BWS|GO")
		scenName  = flag.String("scenario", "", "replay a catalog scenario or trace file instead of -bench (closed loop)")
		shardsN   = flag.Int("shards", 0, "scenario mode: fan the trace across K simulated federated shards (0 = single machine)")
		spillName = flag.String("spill", "next", "federated scenario mode: spill policy on shard refusal (none|random|next)")
		runs      = flag.Int("runs", 4, "completed runs per program")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		showTrace = flag.Bool("trace", false, "print scheduling events to stderr")
		traceOut  = flag.String("trace-jsonl", "", "write typed scheduling events as JSONL to this file")
		timeline  = flag.Bool("timeline", false, "print an ASCII core-occupancy timeline")
		dot       = flag.Bool("dot", false, "dump the benchmark task graphs as Graphviz DOT and exit")

		cores   = flag.Int("cores", 16, "cores")
		sockets = flag.Int("socket", 8, "cores per socket")
		quantum = flag.Int64("quantum", 6000, "OS quantum (µs)")
		steal   = flag.Int64("steal", 5, "steal attempt cost (µs)")
		yield   = flag.Int64("yield", 400, "thief backoff between failed attempts (µs)")
		wake    = flag.Int64("wake", 60, "worker wake latency (µs)")
		tsleep  = flag.Int("tsleep", 0, "T_SLEEP (0 = cores)")
		coord   = flag.Int64("coord", 10000, "coordinator period T (µs)")
		seed    = flag.Int64("seed", 1, "seed")
		strongY = flag.Bool("strongyield", false, "use the idealised ABP yield")
		penalty = flag.Float64("cachepenalty", 2.0, "cold-cache slowdown factor")
		warm    = flag.Int64("cachewarm", 2000, "cache warm-up time (µs)")
		llc     = flag.Float64("llc", 0.25, "LLC contention penalty per sharer")
	)
	flag.Parse()

	pol, err := parsePolicy(*policy)
	if err != nil {
		fatal(err)
	}

	if *scenName != "" {
		cfg := sim.DefaultConfig()
		cfg.Cores, cfg.SocketSize, cfg.Policy = *cores, *sockets, pol
		cfg.QuantumUS, cfg.StealCostUS, cfg.StealYieldUS = *quantum, *steal, *yield
		cfg.WakeLatencyUS, cfg.TSleep, cfg.CoordPeriodUS = *wake, *tsleep, *coord
		cfg.StrongYield = *strongY
		cfg.CachePenalty, cfg.CacheWarmUS, cfg.LLCPenalty = *penalty, *warm, *llc
		cfg.Seed = *seed
		if *shardsN > 0 {
			runFedScenario(*scenName, cfg, *shardsN, *spillName)
		} else {
			runScenario(*scenName, cfg)
		}
		return
	}

	var graphs []*task.Graph
	for _, id := range strings.Split(*benchIDs, ",") {
		b, err := workload.ByID(strings.TrimSpace(id))
		if err != nil {
			fatal(err)
		}
		graphs = append(graphs, b.Make(*scale))
	}

	if *dot {
		for _, g := range graphs {
			if err := task.WriteDOT(os.Stdout, g); err != nil {
				fatal(err)
			}
		}
		return
	}

	cfg := sim.Config{
		Cores: *cores, SocketSize: *sockets, Policy: pol,
		QuantumUS: *quantum, StealCostUS: *steal, StealYieldUS: *yield,
		WakeLatencyUS: *wake, TSleep: *tsleep, CoordPeriodUS: *coord,
		CoordCostUS: 5, StrongYield: *strongY,
		CachePenalty: *penalty, CacheWarmUS: *warm, LLCPenalty: *llc,
		SpinContention: 0.012, Seed: *seed,
	}
	m, err := sim.NewMachine(cfg, graphs)
	if err != nil {
		fatal(err)
	}
	var rec *trace.Recorder
	switch {
	case *traceOut != "":
		rec = &trace.Recorder{Max: 2_000_000}
		m.Trace = rec.Hook()
	case *showTrace:
		m.Trace = func(ts int64, format string, args ...any) {
			fmt.Fprintf(os.Stderr, "%10dµs "+format+"\n", append([]any{ts}, args...)...)
		}
	}
	runOpts := sim.RunOpts{TargetRuns: *runs}
	if *timeline {
		runOpts.SampleUS = 2000
	}
	res, err := m.Run(runOpts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("policy=%v cores=%d seed=%d simulated=%.3fs events=%d util=%.2f\n",
		pol, *cores, *seed, float64(res.EndTimeUS)/1e6, res.Events, res.Utilization())
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d typed events to %s (%d dropped)\n", len(rec.Events), *traceOut, rec.Dropped)
	}
	if *timeline {
		fmt.Print(res.TimelineASCII(100))
	}
	for _, p := range res.Programs {
		st := p.Stats
		fmt.Printf("%-10s runs=%d mean=%.1fms steals=%d failed=%d sleeps=%d wakes=%d evict=%d claims=%d reclaims=%d spin=%.1fms\n",
			p.Name, p.Runs(), p.MeanRunUS()/1000,
			st.Steals, st.FailedSteals, st.Sleeps, st.Wakes, st.Evictions,
			st.Claims, st.Reclaims, float64(st.SpinUS)/1000)
	}
}

// runScenario replays a scenario trace (catalog name or .jsonl/.csv file)
// through the open-loop simulator and prints the per-tenant report.
func runScenario(name string, cfg sim.Config) {
	var (
		tr  *scenario.Trace
		err error
	)
	if strings.HasSuffix(name, ".jsonl") || strings.HasSuffix(name, ".csv") {
		tr, err = scenario.LoadFile(name)
	} else {
		tr, err = scenario.CompileByName(name)
	}
	if err != nil {
		fatal(err)
	}
	res, err := scenario.RunSim(tr, scenario.SimOptions{Config: cfg})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n\n%s", res, res.Table())
}

// runFedScenario replays a scenario trace through K simulated federated
// shards under the named spill policy and prints the report plus the
// spill ledger — the virtual-clock preview of a dwsrouter deployment.
func runFedScenario(name string, cfg sim.Config, shards int, spillName string) {
	var (
		tr  *scenario.Trace
		err error
	)
	if strings.HasSuffix(name, ".jsonl") || strings.HasSuffix(name, ".csv") {
		tr, err = scenario.LoadFile(name)
	} else {
		tr, err = scenario.CompileByName(name)
	}
	if err != nil {
		fatal(err)
	}
	spill, err := sim.ParseSpillPolicy(spillName)
	if err != nil {
		fatal(err)
	}
	fr, err := scenario.RunFedSim(tr, scenario.FedSimOptions{
		Config: cfg,
		Shards: shards,
		Spill:  spill,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n\n%s", fr.Result, fr.Result.Table())
	if len(fr.Fed.Spills) > 0 {
		fmt.Println("\nspills (from -> to):")
		for _, sp := range fr.Fed.Spills {
			fmt.Printf("  s%d -> s%d  %-6s %d\n", sp.From, sp.To, sp.Reason, sp.Count)
		}
	}
}

func parsePolicy(s string) (sim.Policy, error) {
	switch strings.ToUpper(s) {
	case "ABP":
		return sim.ABP, nil
	case "EP":
		return sim.EP, nil
	case "DWS":
		return sim.DWS, nil
	case "DWS-NC", "DWSNC":
		return sim.DWSNC, nil
	case "BWS":
		return sim.BWS, nil
	case "GO":
		return sim.GO, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dwssim: %v\n", err)
	os.Exit(1)
}
