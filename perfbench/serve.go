package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/kernels"
	"dws/internal/router"
	"dws/internal/rt"
	"dws/internal/scenario"
	"dws/internal/server"
)

// serveMix declares a served traffic mix. Each generator tenant is named
// "<server tenant>-<kernel>", so one server tenant may send several
// kernels, each with its own Poisson stream compiled by scenario.Spec.
type serveMix struct {
	name string
	gens []scenario.TenantSpec
	// weights are the server tenants' declared WFQ/arbiter weights; the
	// first tenant listed in gold is the one gold_p99_ms follows.
	weights map[string]float64
	gold    string
	// viaRouter sends jobs over loopback through an in-process router to
	// one in-process server shard; otherwise jobs are direct ServeHTTP
	// calls on the server's handler.
	viaRouter bool
	// inFlight caps concurrent requests (one connection each); 0 leaves
	// the open loop unbounded.
	inFlight int
	// limitMS is the latency limit an answered job must meet to count as
	// ok; deadlineMS is the deadline each job declares (0 = server
	// default).
	limitMS    float64
	deadlineMS int64
	// warmup is the number of untimed jobs each generator sends at set-up.
	warmup int
}

func gen(tenant, kernel string, hz, size float64) scenario.TenantSpec {
	return scenario.TenantSpec{
		Name:    tenant + "-" + kernel,
		Kernel:  kernel,
		Arrival: scenario.Arrival{Kind: scenario.ArrivePoisson, RateHz: hz},
		Size:    scenario.Size{Kind: scenario.SizeFixed, Mean: size},
	}
}

// serveSmallMix: two equal-weight tenants of small jobs (1–3 ms runs) at
// about a quarter of the mix's capacity on the 2-slot host, through the
// router.
var serveSmallMix = serveMix{
	name: "serve-small",
	gens: []scenario.TenantSpec{
		gen("a", "FFT", 24, 0.02),
		gen("a", "Cholesky", 24, 0.3),
		gen("b", "PNN", 24, 0.08),
		gen("b", "Heat", 24, 0.35),
	},
	weights:   map[string]float64{"a": 1, "b": 1},
	gold:      "a",
	viaRouter: true,
	inFlight:  coreSlots,
	limitMS:   50,
	warmup:    10,
}

// serveOverloadMix: a weight-2 gold tenant within its share against a
// weight-1 bronze one offered about 1.5× what its runner serves, with
// 200 ms deadlines and the default global backlog cap.
var serveOverloadMix = serveMix{
	name: "serve-overload",
	gens: []scenario.TenantSpec{
		gen("gold", "FFT", 150, 0.02),
		gen("bronze", "Mergesort", 50, 0.05),
		gen("bronze", "PNN", 50, 0.2),
	},
	weights:    map[string]float64{"gold": 2, "bronze": 1},
	gold:       "gold",
	limitMS:    200,
	deadlineMS: 200,
	warmup:     10,
}

func setupServeSmall(seed int64, refs refPool) (env, error) {
	return setupServe(serveSmallMix, seed, refs)
}

func setupServeOverload(seed int64, refs refPool) (env, error) {
	return setupServe(serveOverloadMix, seed, refs)
}

// serveEnv is a running server (and router) plus the generator's clients.
type serveEnv struct {
	mix     serveMix
	seed    int64
	windows int
	cur     atomic.Pointer[tracer]

	srv     *server.Server
	handler http.Handler // the server's handler, span-wrapped
	rtr     *router.Router
	servers []*http.Server
	shardTr *http.Transport    // the router's outbound transport
	clients []*http.Client     // one per in-flight slot (serve via router)
	base    string             // router URL
	refs    refPool            // sequential reference times by kernel
	seqMS   map[string]float64 // kernel → sequential reference time
}

func setupServe(mix serveMix, seed int64, refs refPool) (env, error) {
	e := &serveEnv{mix: mix, seed: seed, refs: refs, seqMS: map[string]float64{}}
	srv, err := server.New(server.Config{Cores: coreSlots, Policy: rt.DWS, MaxTenants: len(mix.weights)})
	if err != nil {
		return nil, err
	}
	e.srv = srv
	e.handler = spanHandler(&e.cur, "server", "router.forward", srv.Handler())
	if mix.viaRouter {
		shardURL, err := e.listen(e.handler)
		if err != nil {
			e.close()
			return nil, err
		}
		e.shardTr = &http.Transport{MaxIdleConnsPerHost: 2 * coreSlots}
		e.rtr, err = router.New(router.Config{
			Shards: []router.ShardSpec{{Name: "s0", URL: shardURL}},
			Client: &http.Client{Transport: &spanTransport{cur: &e.cur, name: "router.forward", parent: "router", next: e.shardTr}},
		})
		if err != nil {
			e.close()
			return nil, err
		}
		if e.base, err = e.listen(spanHandler(&e.cur, "router", "client", e.rtr.Handler())); err != nil {
			e.close()
			return nil, err
		}
		for i := 0; i < mix.inFlight; i++ {
			e.clients = append(e.clients, &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
		}
	}
	if err := e.sampleRefs(); err != nil {
		e.close()
		return nil, err
	}
	// Warm-up: create the tenants, declare weights, fill the run-time
	// EWMAs; untimed, but charged to setup_s.
	for _, g := range mix.gens {
		tenant, _, _ := strings.Cut(g.Name, "-")
		for i := 0; i < mix.warmup; i++ {
			j := &jobRec{tenant: tenant, kernel: g.Kernel, size: g.Size.Mean,
				weight: mix.weights[tenant], due: time.Now()}
			e.do(0, j)
			if j.code != http.StatusOK {
				e.close()
				return nil, fmt.Errorf("warm-up job for %s answered %d: %s", tenant, j.code, j.errText)
			}
		}
	}
	return e, nil
}

// sampleRefs times five sequential runs of every kernel the mix sends,
// adds them to the reference pool and refreshes seqMS from it.
func (e *serveEnv) sampleRefs() error {
	for _, g := range e.mix.gens {
		run, err := seqJob(g.Kernel, g.Size.Mean)
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			e.refs.add(g.Kernel, timeQuiet(run))
		}
		e.seqMS[g.Kernel] = e.refs.best(g.Kernel)
	}
	return nil
}

// listen serves h on a loopback listener and returns its URL.
func (e *serveEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	e.servers = append(e.servers, hs)
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.rtr != nil {
		_ = e.rtr.Shutdown(ctx) // a failed drain leaves nothing to report
	}
	for i := len(e.servers) - 1; i >= 0; i-- {
		_ = e.servers[i].Shutdown(ctx)
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	if e.shardTr != nil {
		e.shardTr.CloseIdleConnections()
	}
	if e.srv != nil {
		_ = e.srv.Shutdown(ctx)
	}
}

// jobRec is one generated job and everything observed about it.
type jobRec struct {
	id             uint64
	tenant, kernel string
	size, weight   float64
	atUS           int64 // offset of the due time from the window start
	due, send, end time.Time
	code           int
	reason         string
	res            server.JobResult
	errText        string
}

func (j *jobRec) latencyMS() float64 { return durMS(j.end.Sub(j.due)) }

// do sends one job on client slot c (or straight into the handler) and
// records the answer.
func (e *serveEnv) do(c int, j *jobRec) {
	body, _ := json.Marshal(server.JobRequest{ // plain struct: cannot fail
		Tenant: j.tenant, Kernel: j.kernel, Size: j.size,
		DeadlineMS: e.mix.deadlineMS, Weight: j.weight,
	})
	var (
		code   int
		header http.Header
		data   []byte
	)
	j.send = time.Now()
	if e.mix.viaRouter {
		req, err := http.NewRequest(http.MethodPost, e.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			j.errText = err.Error()
			j.end = time.Now()
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if j.id != 0 {
			req.Header.Set(jobHeader, strconv.FormatUint(j.id, 10))
		}
		resp, err := e.clients[c].Do(req)
		if err != nil {
			j.errText = err.Error()
			j.end = time.Now()
			return
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			j.errText = err.Error()
		}
		code, header = resp.StatusCode, resp.Header
	} else {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		if j.id != 0 {
			req.Header.Set(jobHeader, strconv.FormatUint(j.id, 10))
		}
		rec := httptest.NewRecorder()
		e.handler.ServeHTTP(rec, req)
		code, header, data = rec.Code, rec.Header(), rec.Body.Bytes()
	}
	j.end = time.Now()
	j.code = code
	j.reason = header.Get(server.RejectReasonHeader)
	if code == http.StatusOK || code == http.StatusGatewayTimeout ||
		(code == http.StatusTooManyRequests && j.reason == "shed") {
		// A 504 carries a JobResult when the runner skipped the expired job
		// and an error body when the handler's deadline fired first.
		if err := json.Unmarshal(data, &j.res); err != nil && code != http.StatusGatewayTimeout {
			j.errText = "undecodable result: " + err.Error()
		}
	} else if code != http.StatusTooManyRequests {
		j.errText = strings.TrimSpace(string(data))
	}
}

// measure replays one freshly compiled window of the mix.
func (e *serveEnv) measure(seconds float64, tr *tracer) (*window, error) {
	e.windows++
	spec := scenario.Spec{
		Name:       e.mix.name,
		Seed:       e.seed*1000 + int64(e.windows),
		DurationUS: int64(seconds * 1e6),
		Tenants:    e.mix.gens,
	}
	trace, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	var jobs []*jobRec
	first := map[string]bool{}
	for i, ev := range trace.Events {
		if ev.Op != scenario.OpJob {
			continue
		}
		tenant, _, _ := strings.Cut(ev.Tenant, "-")
		j := &jobRec{id: uint64(i + 1), tenant: tenant, kernel: ev.Kernel, size: ev.Scale, atUS: ev.AtUS}
		if !first[tenant] { // the first job of each tenant re-declares its weight
			first[tenant] = true
			j.weight = e.mix.weights[tenant]
		}
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("window of %gs compiled no jobs", seconds)
	}

	progBefore := e.progStats()
	changesBefore := e.entitlementChanges()
	tenantsBefore := e.tenantInfo()
	if tr != nil {
		e.cur.Store(tr)
		defer e.cur.Store(nil)
	}
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	var held, entitled []float64
	if tr != nil { // the samples feed only per-layer metrics
		samplerWG.Add(1)
		go func() { // 10 Hz samples of the gold tenant's core shares
			defer samplerWG.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if ti, ok := e.tenantInfo()[e.mix.gold]; ok {
						held = append(held, float64(ti.CoresHeld)/coreSlots)
						if ti.EntitledCores >= 0 {
							entitled = append(entitled, float64(ti.EntitledCores)/coreSlots)
						}
					}
				}
			}
		}()
	}
	goBefore := readGo()
	cpuBefore := cpuSeconds()

	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	work := make(chan *jobRec)
	for c := 0; c < e.mix.inFlight; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range work {
				e.do(c, j)
			}
		}(c)
	}
	for _, j := range jobs {
		j.due = start.Add(time.Duration(j.atUS) * time.Microsecond)
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		if e.mix.inFlight > 0 {
			work <- j
		} else {
			wg.Add(1)
			go func(j *jobRec) {
				defer wg.Done()
				e.do(0, j)
			}(j)
		}
	}
	close(work)
	wg.Wait()
	cpu := cpuSeconds() - cpuBefore
	goAfter := readGo()
	close(stopSampler)
	samplerWG.Wait()
	progAfter := e.progStats()
	changes := e.entitlementChanges() - changesBefore
	tenantsAfter := e.tenantInfo()
	// Sample the sequential references again after the window, so they
	// span it rather than only the moment of set-up.
	if err := e.sampleRefs(); err != nil {
		return nil, err
	}

	w := &window{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
	var (
		lat, goldLat, runMS, waitMS     []float64
		slow                            = map[string][]float64{} // by kernel
		ok, completed, admitted         int
		wakes, sleeps, claims, reclaims float64
		reasons                         = map[string]int{}
		expired, errs, late             int
		last                            time.Time
	)
	for _, j := range jobs {
		if j.end.After(last) {
			last = j.end
		}
		switch {
		case j.errText != "" && j.code != http.StatusTooManyRequests:
			errs++
			continue
		case j.code == http.StatusOK && j.res.Status == server.StatusOK:
			completed++
			l := j.latencyMS()
			lat = append(lat, l)
			if j.tenant == e.mix.gold {
				goldLat = append(goldLat, l)
			}
			slow[j.kernel] = append(slow[j.kernel], j.res.RunMS/e.seqMS[j.kernel])
			runMS = append(runMS, j.res.RunMS)
			waitMS = append(waitMS, j.res.QueueMS)
			wakes += float64(j.res.Stats.Wakes)
			sleeps += float64(j.res.Stats.Sleeps)
			claims += float64(j.res.Stats.Claims)
			reclaims += float64(j.res.Stats.Reclaims)
			admitted++
			if l <= e.mix.limitMS {
				ok++
			} else {
				late++
			}
		case j.code == http.StatusTooManyRequests:
			if j.reason == "" {
				w.checks = append(w.checks, fmt.Sprintf("job %d: 429 without %s", j.id, server.RejectReasonHeader))
				errs++
				continue
			}
			reasons[j.reason]++
			if j.reason == "shed" {
				admitted++
			}
		case j.code == http.StatusGatewayTimeout:
			expired++
			admitted++
		default:
			errs++
			w.checks = append(w.checks, fmt.Sprintf("job %d: unexpected answer %d: %s", j.id, j.code, j.errText))
		}
	}
	refused := 0
	for r, n := range reasons {
		switch r {
		case "early_reject", "queue_full", "overload", "shed":
		default:
			w.checks = append(w.checks, fmt.Sprintf("unknown reject reason %q", r))
		}
		refused += n
	}
	sent := len(jobs)
	if ok+late+refused+expired+errs != sent {
		w.checks = append(w.checks, fmt.Sprintf("accounting: sent %d != ok %d + late %d + refused %d + expired %d + errors %d",
			sent, ok, late, refused, expired, errs))
	}
	// The server's own ledger must agree with what the clients saw. A job
	// answered 504 at its deadline stays queued until its runner reaches
	// it, so it may still run to completion or be shed as a victim: each
	// such job may be among the served or the shed, never both.
	var served, shed, early int64
	for name, after := range tenantsAfter {
		before := tenantsBefore[name]
		served += after.JobsServed - before.JobsServed
		shed += after.Shed - before.Shed
		early += after.EarlyRejected - before.EarlyRejected
	}
	lateServed, lateShed := served-int64(completed), shed-int64(reasons["shed"])
	if lateServed < 0 || lateShed < 0 || lateServed+lateShed > int64(expired) ||
		early != int64(reasons["early_reject"]) {
		w.checks = append(w.checks, fmt.Sprintf(
			"server ledger (served %d, shed %d, early_reject %d) disagrees with clients (200 %d, 504 %d, shed %d, early_reject %d)",
			served, shed, early, completed, expired, reasons["shed"], reasons["early_reject"]))
	}
	if len(lat) == 0 {
		w.checks = append(w.checks, "no job answered 200")
	}

	w.attempted, w.failed = sent, errs
	w.e2e["latency_p50_ms"] = pct(lat, 50)
	w.e2e["latency_p99_ms"] = pct(lat, 99)
	w.e2e["gold_p99_ms"] = pct(goldLat, 99)
	// Slowdown percentiles are taken per kernel and averaged geometrically:
	// pooled over kernels, the top percent is whichever kernel's tail
	// happens to be longest relative to its reference in that window.
	var slow50, slow99 []float64
	for _, xs := range slow {
		slow50 = append(slow50, pct(xs, 50))
		slow99 = append(slow99, pct(xs, 99))
	}
	w.e2e["corun_slowdown_p50"] = geoMean(slow50)
	w.e2e["corun_slowdown_p99"] = geoMean(slow99)
	w.e2e["ok_rate"] = ratio(float64(ok), float64(sent))
	w.e2e["goodput_jps"] = float64(ok) / seconds
	w.e2e["makespan_s"] = last.Sub(start).Seconds()
	w.e2e["cpu_ms_per_job"] = ratio(cpu*1e3, float64(completed))
	w.e2e["rss_peak_mb"] = rssPeakMB()
	w.info["sent"] = sent
	w.info["seq_ms"] = e.seqMS
	w.info["run_p50_ms"] = pct(runMS, 50)
	w.info["outcomes"] = map[string]any{"ok": ok, "late": late, "expired": expired, "errors": errs, "refused": reasons}
	w.info["latency_samples"] = len(lat)
	w.info["latency_beyond_p99"] = beyond(lat, 99)
	w.info["gold_samples"] = len(goldLat)
	w.info["gold_beyond_p99"] = beyond(goldLat, 99)

	if tr == nil {
		return w, nil
	}
	L := w.layers
	var lag []float64
	for _, j := range jobs {
		lag = append(lag, durMS(j.send.Sub(j.due)))
	}
	L["gen.lag_p99_ms"] = pct(lag, 99)
	e.spanLayers(L, jobs, tr, w)
	L["admission.wait_ms_p50"] = pct(waitMS, 50)
	L["admission.wait_ms_p99"] = pct(waitMS, 99)
	for _, r := range []string{"early_reject", "queue_full", "overload", "shed"} {
		L["admission.reject_ratio."+r] = ratio(float64(reasons[r]), float64(sent))
	}
	L["admission.admit_yield"] = ratio(float64(ok), float64(admitted))
	L["arbiter.changes_per_s"] = changes / seconds
	L["arbiter.gold_held_share"] = median(held)
	L["arbiter.gold_entitled_share"] = median(entitled)
	n := float64(completed)
	L["coord.wakes_per_run"] = ratio(wakes, n)
	L["coord.sleeps_per_run"] = ratio(sleeps, n)
	L["coord.claims_per_run"] = ratio(claims, n)
	L["coord.reclaims_per_run"] = ratio(reclaims, n)
	L["rt.run_ms_p50"] = pct(runMS, 50)
	L["rt.run_ms_p99"] = pct(runMS, 99)
	d := progAfter.sub(progBefore)
	L["rt.steal_yield"] = ratio(float64(d.Steals), float64(d.Steals+d.FailedSteals))
	L["rt.failed_steals_per_run"] = ratio(float64(d.FailedSteals), float64(d.Runs))
	L["rt.tasks_per_run"] = ratio(float64(d.Spawns), float64(d.Runs))
	for k, v := range e.seqMS {
		L["kernels.seq_ms."+k] = v
	}
	goLayer(L, goBefore, goAfter, completed)
	return w, nil
}

// spanLayers derives the per-layer times of every job answered 200 from
// its spans. Each part is a span minus the spans nested in it, so the
// parts add up to the job's latency from its due time,
//
//	latency = gen.lag + gen.net + router.self + router.hop
//	        + server.self + admission.wait + rt.run,
//
// exactly when every span nests inside its parent; one that does not is a
// failed check.
func (e *serveEnv) spanLayers(L map[string]float64, jobs []*jobRec, tr *tracer, w *window) {
	spans := tr.byJob()
	var net, rself, hop, sself, refuse []float64
	broken := 0
	for _, j := range jobs {
		sp := spans[j.id]
		srv := sp["server"]
		if len(srv) != 1 {
			if j.errText == "" {
				broken++
			}
			continue
		}
		client := span{Start: tr.ns(j.send), End: tr.ns(j.end)}
		top := srv[0]
		if e.mix.viaRouter {
			rs, fw := sp["router"], sp["router.forward"]
			if len(rs) != 1 || len(fw) == 0 {
				broken++
				continue
			}
			top = rs[0]
			last := fw[len(fw)-1]
			if !within(top, client) || !within(last, top) || !within(srv[0], last) {
				broken++
				continue
			}
			if j.code == http.StatusOK {
				rself = append(rself, selfMS(top, fw))
				hop = append(hop, last.ms()-srv[0].ms())
			}
		} else if !within(top, client) {
			broken++
			continue
		}
		switch {
		case j.code == http.StatusOK:
			s := srv[0].ms() - j.res.QueueMS - j.res.RunMS
			if s < 0 { // the server's own queue and run times must fit in its span
				broken++
				continue
			}
			net = append(net, client.ms()-top.ms())
			sself = append(sself, s)
		case j.code == http.StatusTooManyRequests && j.reason != "shed":
			refuse = append(refuse, srv[0].ms())
		}
	}
	if broken > 0 {
		w.checks = append(w.checks, fmt.Sprintf("%d jobs with missing or non-nesting spans", broken))
	}
	L["gen.net_ms_p50"] = pct(net, 50)
	L["router.self_ms_p50"] = pct(rself, 50)
	L["router.self_ms_p99"] = pct(rself, 99)
	L["router.hop_ms_p50"] = pct(hop, 50)
	L["server.self_ms_p50"] = pct(sself, 50)
	L["server.self_ms_p99"] = pct(sself, 99)
	L["server.refuse_ms_p99"] = pct(refuse, 99)
	w.info["span_breakdown_p50_ms"] = map[string]float64{
		"gen.net": pct(net, 50), "router.self": pct(rself, 50), "router.hop": pct(hop, 50),
		"server.self": pct(sself, 50),
	}
}

// get answers an in-process GET on the server's handler.
func (e *serveEnv) get(path string) []byte {
	rec := httptest.NewRecorder()
	e.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}

func (e *serveEnv) tenantInfo() map[string]server.TenantInfo {
	var infos []server.TenantInfo
	_ = json.Unmarshal(e.get("/v1/tenants"), &infos) // an empty map is the answer on error
	out := map[string]server.TenantInfo{}
	for _, ti := range infos {
		out[ti.Name] = ti
	}
	return out
}

var changesRe = regexp.MustCompile(`(?m)^dws_entitlement_changes_total ([0-9.e+]+)$`)

func (e *serveEnv) entitlementChanges() float64 {
	m := changesRe.FindSubmatch(e.get("/metrics"))
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(string(m[1]), 64)
	return v
}

// progCounters sums the hosted programs' counters.
type progCounters struct{ Steals, FailedSteals, Spawns, Runs int64 }

func (a progCounters) sub(b progCounters) progCounters {
	return progCounters{a.Steals - b.Steals, a.FailedSteals - b.FailedSteals, a.Spawns - b.Spawns, a.Runs - b.Runs}
}

func (e *serveEnv) progStats() progCounters {
	var c progCounters
	for _, p := range e.srv.System().Programs() {
		st := p.Stats()
		c.Steals += st.Steals
		c.FailedSteals += st.FailedSteals
		c.Spawns += st.Spawns
		c.Runs += st.Runs
	}
	return c
}

// seqJob returns a sequential run of the job the server runs for kernel at
// size: the same input generation (as internal/kernels/catalog.go scales
// it) followed by the kernel's sequential routine. Its time is the job's
// same-process sequential reference, comparable with JobResult.RunMS,
// which also includes input generation.
func seqJob(kernel string, size float64) (func(), error) {
	dim := func(base int) int { return max(8, int(float64(base)*size)) }
	switch kernel {
	case "FFT":
		return func() {
			n := 1
			for n < dim(1<<18) {
				n <<= 1
			}
			kernels.FFTSeq(kernels.RandComplex(n, 7))
		}, nil
	case "PNN":
		return func() {
			net := kernels.NewPNN(16, []int{64, 32, 16}, 1)
			net.ForwardSeq(kernels.RandBatch(dim(20_000), 16, 2))
		}, nil
	case "Cholesky":
		return func() {
			n := dim(384)
			kernels.CholeskySeq(kernels.SPDMatrix(n, 12), n)
		}, nil
	case "Heat":
		return func() { kernels.HeatSeq(kernels.NewGrid(dim(512), dim(512)), 30) }, nil
	case "Mergesort":
		return func() { kernels.MergesortSeq(kernels.RandSlice(dim(4_000_000), 11)) }, nil
	}
	return nil, fmt.Errorf("no sequential reference for kernel %q", kernel)
}
