package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dws/internal/bench"
	"dws/internal/scenario"
	"dws/internal/sim"
)

// sim-replay: the scenario catalog compiled with the run's seed and
// replayed on the simulator's virtual clock, every cell twice: each
// catalog scenario under the five policies of the scenario suite
// (scenario.RunSim), and the federated scenarios under every spill
// policy of the federation suite (scenario.RunFedSim), configured as
// those suites configure them.

// simCell is one (trace, policy) replay.
type simCell struct {
	name string // "<scenario>/<policy>"
	fed  bool
	dws  bool // replayed under DWS, the policy the paper proposes
	jobs int  // job events in the trace
	run  func() (*scenario.Result, error)
}

type simEnv struct {
	cells []*simCell
}

func setupSimReplay(seed int64, _ refPool) (env, error) {
	e := &simEnv{}
	jobsIn := func(tr *scenario.Trace) int {
		n := 0
		for _, ev := range tr.Events {
			if ev.Op == scenario.OpJob {
				n++
			}
		}
		return n
	}
	for _, spec := range scenario.Catalog() {
		spec.Seed += seed
		tr, err := spec.Compile()
		if err != nil {
			return nil, err
		}
		adm := &sim.AdmissionOpts{GlobalCap: len(tr.Tenants()) * 8, EarlyReject: true}
		for _, pol := range bench.ScenarioPolicies {
			cfg := sim.DefaultConfig()
			cfg.Policy = pol
			e.cells = append(e.cells, &simCell{
				name: spec.Name + "/" + pol.String(), dws: pol == sim.DWS, jobs: jobsIn(tr),
				run: func() (*scenario.Result, error) {
					return scenario.RunSim(tr, scenario.SimOptions{Config: cfg, Admission: adm})
				},
			})
		}
	}
	for _, name := range bench.FedScenarios {
		spec, err := scenario.SpecByName(name)
		if err != nil {
			return nil, err
		}
		spec.Seed += seed
		tr, err := spec.Compile()
		if err != nil {
			return nil, err
		}
		adm := &sim.AdmissionOpts{GlobalCap: len(tr.Tenants()) * 4, EarlyReject: true}
		for _, sp := range bench.FedPolicies {
			cfg := sim.DefaultConfig()
			cfg.Policy = sim.DWS
			cfg.Cores = bench.FedCores
			cfg.SocketSize = bench.FedCores
			e.cells = append(e.cells, &simCell{
				name: "fed:" + name + "/" + sp.String(), fed: true, dws: true, jobs: jobsIn(tr),
				run: func() (*scenario.Result, error) {
					fr, err := scenario.RunFedSim(tr, scenario.FedSimOptions{
						Config: cfg, Shards: bench.FedShards, Spill: sp, QueueCap: 2, Admission: adm,
					})
					if err != nil {
						return nil, err
					}
					return fr.Result, nil
				},
			})
		}
	}
	// Warm-up: one untimed replay of the first cell.
	if _, err := e.cells[0].run(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *simEnv) close() {}

// simVisit is one cell replayed twice.
type simVisit struct {
	cell    *simCell
	ms      [2]float64 // wall time of each replay
	cpuMS   [2]float64 // process CPU time of each replay
	allocMB [2]float64
	res     *scenario.Result
	err     error
}

// visit replays c twice and checks that the two replays are
// byte-identical and account for every job of the trace.
func visit(c *simCell, id uint64, tr *tracer) simVisit {
	v := simVisit{cell: c}
	var out [2][]byte
	for i := range out {
		// Each replay starts from a collected heap, so the collections
		// inside it depend on its own allocations, not on the cells before.
		runtime.GC()
		g0 := readGo()
		cpu0 := cpuSeconds()
		start := time.Now()
		res, err := c.run()
		end := time.Now()
		cpu1 := cpuSeconds()
		g1 := readGo()
		if tr != nil {
			name := "sim.scenario"
			if c.fed {
				name = "sim.federation"
			}
			tr.add(id, name, "", start, end)
		}
		if err != nil {
			v.err = fmt.Errorf("%s: %w", c.name, err)
			return v
		}
		v.ms[i] = durMS(end.Sub(start))
		v.cpuMS[i] = (cpu1 - cpu0) * 1e3
		v.allocMB[i] = float64(g1.allocBytes-g0.allocBytes) / (1 << 20)
		if out[i], err = json.Marshal(res); err != nil {
			v.err = fmt.Errorf("%s: %w", c.name, err)
			return v
		}
		v.res = res
	}
	r := v.res
	switch {
	case !bytes.Equal(out[0], out[1]):
		v.err = fmt.Errorf("%s: the two replays differ", c.name)
	case r.Sent != c.jobs:
		v.err = fmt.Errorf("%s: replay sent %d of %d jobs", c.name, r.Sent, c.jobs)
	case r.OK+r.Late+r.Expired+r.Rejected+r.Shed+r.EarlyRejected+r.Errors != r.Sent:
		v.err = fmt.Errorf("%s: outcomes do not add up to the %d jobs sent", c.name, r.Sent)
	}
	return v
}

func (e *simEnv) measure(seconds float64, tr *tracer) (*window, error) {
	goBefore := readGo()
	start := time.Now()
	var visits []simVisit
	// Whole passes over the cells are not required, but at least one is,
	// so every cell has a time.
	for i := 0; i < len(e.cells) || time.Since(start).Seconds() < seconds; i++ {
		visits = append(visits, visit(e.cells[i%len(e.cells)], uint64(i+1), tr))
	}
	goAfter := readGo()

	w := &window{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
	allJobs, okVisits := 0, 0
	cellMS := map[*simCell][]float64{}
	cellMB := map[*simCell][]float64{}
	cellCPU := map[*simCell][]float64{}
	results := map[string]*scenario.Result{}
	for _, v := range visits {
		allJobs += 2 * v.cell.jobs
		if v.err != nil {
			w.checks = append(w.checks, v.err.Error())
			continue
		}
		okVisits++
		cellMS[v.cell] = append(cellMS[v.cell], v.ms[0], v.ms[1])
		cellMB[v.cell] = append(cellMB[v.cell], v.allocMB[0], v.allocMB[1])
		cellCPU[v.cell] = append(cellCPU[v.cell], v.cpuMS[0], v.cpuMS[1])
		results[v.cell.name] = v.res
	}
	// A cell's replay time is the fastest of its replays: the work is
	// deterministic, so anything else on the host only adds time. One pass
	// replays every cell twice; its cost is twice the sum of the cells'
	// times.
	var scenS, fedS, passMB, passCPUMS, simMakespanS float64
	var p50s, p99s, dwsP99s []float64
	passJobs, simOK := 0, 0
	for _, c := range e.cells {
		r := results[c.name]
		if r == nil { // every visit failed; a check says so
			continue
		}
		p50s = append(p50s, r.Latency.P50)
		p99s = append(p99s, r.Latency.P99)
		if c.dws {
			dwsP99s = append(dwsP99s, r.Latency.P99)
		}
		simMakespanS += r.MakespanMS / 1e3
		simOK += r.OK
		ms := slices.Min(cellMS[c])
		passJobs += 2 * c.jobs
		if c.fed {
			fedS += ms / 1e3
		} else {
			scenS += ms / 1e3
		}
		passMB += median(cellMB[c])
		passCPUMS += 2 * slices.Min(cellCPU[c])
	}
	// The simulator's own verdict on the paper's comparison: DWS's
	// simulated latency relative to ABP's, as a geometric mean over the
	// catalog scenarios.
	var rel50, rel99 []float64
	for _, spec := range scenario.Catalog() {
		d, a := results[spec.Name+"/"+sim.DWS.String()], results[spec.Name+"/"+sim.ABP.String()]
		if d != nil && a != nil && a.Latency.P50 > 0 && a.Latency.P99 > 0 {
			rel50 = append(rel50, d.Latency.P50/a.Latency.P50)
			rel99 = append(rel99, d.Latency.P99/a.Latency.P99)
		}
	}

	n := len(visits)
	w.attempted, w.failed = n, n-okVisits
	// The simulator's speed is cpu_ms_per_job, in CPU time: wall time also
	// counts the time the hypervisor runs other guests on this host's
	// cores. Goodput, latency, gold and makespan are the simulated outputs,
	// which the seed alone determines; the replay rate in wall time is the
	// per-layer sim.jobs_per_s.
	w.e2e["latency_p50_ms"] = geoMean(p50s)
	w.e2e["latency_p99_ms"] = geoMean(p99s)
	w.e2e["ok_rate"] = ratio(float64(okVisits), float64(n))
	w.e2e["goodput_jps"] = ratio(float64(simOK), simMakespanS)
	w.e2e["gold_p99_ms"] = geoMean(dwsP99s)
	w.e2e["corun_slowdown_p50"] = geoMean(rel50)
	w.e2e["corun_slowdown_p99"] = geoMean(rel99)
	w.e2e["makespan_s"] = simMakespanS
	w.e2e["cpu_ms_per_job"] = ratio(passCPUMS, float64(passJobs))
	w.e2e["rss_peak_mb"] = rssPeakMB()
	w.info["cells"] = len(e.cells)
	w.info["pass_replay_s"] = 2 * (scenS + fedS)
	w.info["sim_jobs_per_s"] = float64(passJobs) / (2 * (scenS + fedS))
	w.info["visits"] = n
	if tr == nil {
		return w, nil
	}
	L := w.layers
	L["sim.scenario_s"] = scenS
	L["sim.federation_s"] = fedS
	L["sim.alloc_mb"] = passMB
	L["sim.jobs_per_s"] = w.info["sim_jobs_per_s"].(float64)
	goLayer(L, goBefore, goAfter, allJobs)
	return w, nil
}
