// Command dwsbench regenerates every table and figure of the paper's
// evaluation (§4) on the simulator substrate, plus this reproduction's
// ablations and the live-runtime validation.
//
// Usage:
//
//	dwsbench -exp all                 # everything (the EXPERIMENTS.md data)
//	dwsbench -exp fig4                # Fig. 4: mixes under ABP / EP / DWS
//	dwsbench -exp fig5                # Fig. 5: DWS-NC vs DWS
//	dwsbench -exp fig6                # Fig. 6: T_SLEEP sweep on mix (1,8)
//	dwsbench -exp solo                # §4.4: solo overhead of DWS
//	dwsbench -exp coordperiod         # §3.4: coordinator period sweep
//	dwsbench -exp yield               # ablation: weak vs strong ABP yield
//	dwsbench -exp table2              # Table 2: benchmark registry
//	dwsbench -exp live                # real kernels on the live runtime
//
// Simulations are deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dws/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: all|table2|fig4|fig5|fig6|solo|coordperiod|yield|related|scalem|variance|sensitivity|elastic|sharing|asym|live")
		scale  = flag.Float64("scale", 1.0, "workload scale factor (1.0 = full size)")
		runs   = flag.Int("runs", 4, "completed runs per program (Fig. 3 methodology)")
		seed   = flag.Int64("seed", 1, "simulation seed")
		cores  = flag.Int("cores", 16, "simulated cores")
		format = flag.String("format", "text", "output format: text|csv|json")

		liveCores = flag.Int("live-cores", 8, "core slots for -exp live")
		liveRuns  = flag.Int("live-runs", 3, "runs per program for -exp live")
		liveSize  = flag.Float64("live-size", 0.25, "input scale for -exp live")
		liveA     = flag.Int("live-a", 0, "first live bench index (0=FFT 1=Mergesort 2=Heat 3=Cholesky)")
		liveB     = flag.Int("live-b", 1, "second live bench index")
	)
	flag.Parse()

	opts := bench.DefaultOptions()
	opts.Scale = *scale
	opts.TargetRuns = *runs
	opts.Cfg.Seed = *seed
	opts.Cfg.Cores = *cores
	if *cores != 16 {
		opts.Cfg.SocketSize = (*cores + 1) / 2
		opts.Cfg.TSleep = 0 // re-derive as k
	}

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	ran := false
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "dwsbench: %v\n", err)
		os.Exit(1)
	}
	show := func(t *bench.Table) {
		var err error
		switch strings.ToLower(*format) {
		case "text":
			err = t.Render(os.Stdout)
		case "csv":
			err = t.WriteCSV(os.Stdout, true)
		case "json":
			err = t.WriteJSON(os.Stdout)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			fail(err)
		}
	}

	if want("table2") {
		ran = true
		show(bench.Table2())
	}
	if want("fig4") {
		ran = true
		out, err := bench.Fig4(opts)
		if err != nil {
			fail(err)
		}
		show(bench.Fig4Table(out))
	}
	if want("fig5") {
		ran = true
		out, err := bench.Fig5(opts)
		if err != nil {
			fail(err)
		}
		show(bench.Fig5Table(out))
	}
	if want("fig6") {
		ran = true
		rows, err := bench.Fig6(opts)
		if err != nil {
			fail(err)
		}
		show(bench.Fig6Table(rows))
	}
	if want("solo") {
		ran = true
		rows, err := bench.SoloOverhead(opts)
		if err != nil {
			fail(err)
		}
		show(bench.SoloOverheadTable(rows))
	}
	if want("coordperiod") {
		ran = true
		rows, err := bench.CoordPeriod(opts)
		if err != nil {
			fail(err)
		}
		show(bench.CoordPeriodTable(rows))
	}
	if want("yield") {
		ran = true
		rows, err := bench.YieldAblation(opts)
		if err != nil {
			fail(err)
		}
		show(bench.YieldAblationTable(rows))
	}
	if want("related") {
		ran = true
		out, err := bench.RelatedWork(opts)
		if err != nil {
			fail(err)
		}
		show(bench.RelatedWorkTable(out))
	}
	if want("scalem") {
		ran = true
		rows, err := bench.ScaleM(opts)
		if err != nil {
			fail(err)
		}
		show(bench.ScaleMTable(rows))
	}
	if want("sensitivity") {
		ran = true
		rows, names, err := bench.Sensitivity(opts)
		if err != nil {
			fail(err)
		}
		show(bench.SensitivityTable(rows, names))
	}
	if want("variance") {
		ran = true
		rows, names, err := bench.Variance(opts, nil)
		if err != nil {
			fail(err)
		}
		show(bench.VarianceTable(rows, names))
	}
	if want("elastic") {
		ran = true
		rows, names, err := bench.Elasticity(opts)
		if err != nil {
			fail(err)
		}
		show(bench.ElasticityTable(rows, names))
	}
	if want("sharing") {
		ran = true
		rows, err := bench.Sharing(opts)
		if err != nil {
			fail(err)
		}
		show(bench.SharingTable(rows))
	}
	if want("asym") {
		ran = true
		rows, names, err := bench.Asymmetric(opts)
		if err != nil {
			fail(err)
		}
		show(bench.AsymmetricTable(rows, names))
	}
	if want("live") {
		ran = true
		t, err := bench.LiveMixTable(*liveCores, *liveRuns, *liveSize, *liveA, *liveB)
		if err != nil {
			fail(err)
		}
		show(t)
	}
	if !ran {
		fail(fmt.Errorf("unknown experiment %q", *exp))
	}
}
