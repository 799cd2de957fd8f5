package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dws/internal/rt"
)

// TestRetryAfterMonotone pins down the Retry-After contract table-style:
// the hint never drops below one second (header resolution), and it is
// monotone in both the average run time and the queue depth — a fuller
// queue of slower jobs must never produce a *shorter* hint.
func TestRetryAfterMonotone(t *testing.T) {
	// The tenants live on a real WFQ admission layer — the hint must read
	// its backlog, not a private channel.
	mk := func(ewma time.Duration, queued int) *tenant {
		s := &Server{adm: newAdmission(0, true)}
		tn := &tenant{srv: s, depth: 32, flow: s.adm.register(1)}
		tn.runEWMANanos.Store(int64(ewma))
		s.adm.mu.Lock()
		for i := 0; i < queued; i++ {
			s.adm.q.Enqueue(tn.flow, &job{}, 0)
		}
		s.adm.mu.Unlock()
		return tn
	}
	cases := []struct {
		name   string
		ewma   time.Duration
		queued int
		want   time.Duration
	}{
		{"no history", 0, 0, time.Second},
		{"fast jobs floor", 10 * time.Millisecond, 8, time.Second},
		{"one slow job", 1500 * time.Millisecond, 0, 2 * time.Second},
		{"half queue of seconds", time.Second, 4, 3 * time.Second},
		{"deep queue slow jobs", 2 * time.Second, 8, 10 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := mk(tc.ewma, tc.queued).retryAfter(); got != tc.want {
				t.Fatalf("retryAfter(ewma=%v, queued=%d) = %v, want %v",
					tc.ewma, tc.queued, got, tc.want)
			}
		})
	}
	// Monotonicity sweeps: fixed queue, growing EWMA; fixed EWMA, growing
	// queue.
	prev := time.Duration(0)
	for _, ewma := range []time.Duration{0, 100, 600, 1200, 5000} {
		got := mk(ewma*time.Millisecond, 4).retryAfter()
		if got < prev {
			t.Fatalf("retryAfter shrank as EWMA grew: %v after %v", got, prev)
		}
		prev = got
	}
	prev = 0
	for queued := 0; queued <= 16; queued += 4 {
		got := mk(800*time.Millisecond, queued).retryAfter()
		if got < prev {
			t.Fatalf("retryAfter shrank as queue grew: %v after %v", got, prev)
		}
		prev = got
	}
}

// TestQueuedDeadlineEdges drives the deadline-while-queued decision table
// behind one pinned runner: a queued job whose deadline cannot be met is
// 504 and never runs; a queued job with room to spare runs to 200 once
// the pin drains.
func TestQueuedDeadlineEdges(t *testing.T) {
	_, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1, QueueDepth: 8})

	// Pin the single runner with one long job so everything below queues.
	pin := make(chan struct{})
	go func() {
		defer close(pin)
		submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Mergesort", Size: 1.0})
	}()
	time.Sleep(20 * time.Millisecond) // let the pin start running

	cases := []struct {
		name       string
		deadlineMS int64
		wantCode   int
		wantStatus string
	}{
		{"expires while queued", 1, http.StatusGatewayTimeout, ""},
		{"meets a generous deadline", 60_000, http.StatusOK, StatusOK},
		{"server default deadline", 0, http.StatusOK, StatusOK},
	}
	var wg sync.WaitGroup
	for _, tc := range cases {
		wg.Add(1)
		go func(tc struct {
			name       string
			deadlineMS int64
			wantCode   int
			wantStatus string
		}) {
			defer wg.Done()
			resp, res := submit(t, hs.URL, JobRequest{
				Tenant: "a", Kernel: "FFT", Size: 0.02, DeadlineMS: tc.deadlineMS,
			})
			if resp.StatusCode != tc.wantCode {
				t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantCode)
				return
			}
			if tc.wantStatus != "" && res.Status != tc.wantStatus {
				t.Errorf("%s: result status %q, want %q", tc.name, res.Status, tc.wantStatus)
			}
			if tc.wantCode == http.StatusOK && res.QueueMS <= 0 {
				t.Errorf("%s: served instantly (queue wait %vms) — the pin never pinned", tc.name, res.QueueMS)
			}
		}(tc)
	}
	wg.Wait()
	<-pin
}

// TestDrainCompletesInFlight: a job that is *running* (not merely queued)
// when the drain starts must finish with 200/ok — Shutdown is the SIGTERM
// path in cmd/dwsd, and SIGTERM must never clip in-flight work.
func TestDrainCompletesInFlight(t *testing.T) {
	s, err := New(Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	type outcome struct {
		code int
		res  JobResult
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, res := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Mergesort", Size: 0.8})
		ch <- outcome{resp.StatusCode, res}
	}()
	// Wait until the job is demonstrably running, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tl := s.tenantList(); len(tl) == 1 && tl[0].prog.Stats().Runs == 0 && tl[0].queueLen() == 0 {
			break // admitted, dequeued, not yet finished: it is running
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got := <-ch
	if got.code != http.StatusOK || got.res.Status != StatusOK {
		t.Fatalf("in-flight job during drain: code %d status %q, want 200/ok", got.code, got.res.Status)
	}
}

// TestMetricsScrapeAllPolicies: every policy serves jobs and scrapes; the
// core-allocation-table series exist exactly under DWS. (Before this PR
// System.Occupants silently returned nil off-DWS and the occupancy gauge
// vanished without a trace.)
func TestMetricsScrapeAllPolicies(t *testing.T) {
	for _, pol := range []rt.Policy{rt.ABP, rt.EP, rt.DWS, rt.DWSNC} {
		t.Run(pol.String(), func(t *testing.T) {
			_, hs := newTestServer(t, Config{Cores: 4, Policy: pol, MaxTenants: 2})
			if resp, _ := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02}); resp.StatusCode != http.StatusOK {
				t.Fatalf("submit under %s: status %d", pol, resp.StatusCode)
			}
			resp, err := http.Get(hs.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body := string(raw)

			for _, want := range []string{
				`dws_program_runs{tenant="a"} 1`,
				"dws_free_tenant_slots 1",
				`dws_jobs_total{tenant="a",kernel="FFT",status="ok"} 1`,
			} {
				if !strings.Contains(body, want) {
					t.Errorf("%s: /metrics missing %q", pol, want)
				}
			}
			dwsOnly := []string{
				"dws_core_occupant{", `dws_cores_held{tenant="a"}`,
				"dws_dead_programs_swept", "dws_cores_recovered",
			}
			for _, series := range dwsOnly {
				has := strings.Contains(body, series)
				if pol == rt.DWS && !has {
					t.Errorf("DWS /metrics missing %q", series)
				}
				if pol != rt.DWS && has {
					t.Errorf("%s /metrics has table series %q (no table exists)", pol, series)
				}
			}
		})
	}
}

// TestWedgedTenantEvicted: a tenant whose program stops heartbeating is
// swept by the system sweeper, evicted from the tenant map, its slot
// freed for new tenants, and the eviction shows in /metrics. The same
// tenant name can then be re-admitted on a fresh program.
func TestWedgedTenantEvicted(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Cores: 4, Policy: rt.DWS, MaxTenants: 2,
		CoordPeriod: 5 * time.Millisecond, LeaseTTL: 40 * time.Millisecond,
	})
	if resp, _ := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02}); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if free := s.System().FreeSlots(); free != 1 {
		t.Fatalf("FreeSlots = %d, want 1", free)
	}

	// Wedge tenant a's program: its coordinator stops beating its lease.
	var prog *rt.Program
	for _, p := range s.System().Programs() {
		if p.Name() == "a" {
			prog = p
		}
	}
	if prog == nil {
		t.Fatal("tenant a's program not found")
	}
	prog.FailBeats(true)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(s.tenantList()) == 0 && s.System().FreeSlots() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged tenant not evicted: tenants=%d free=%d",
				len(s.tenantList()), s.System().FreeSlots())
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`dws_tenants_evicted_total{tenant="a"} 1`,
		"dws_dead_programs_swept 1",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The slot is genuinely reusable: the same name re-admits cleanly.
	if resp, res := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02}); resp.StatusCode != http.StatusOK || res.Status != StatusOK {
		t.Fatalf("re-admission after eviction: status %d res %+v", resp.StatusCode, res)
	}
}

// TestEarlyRejectionTable drives the deadline-aware early-rejection
// decision directly through the admission layer, table-style: no
// run-time history admits (nothing to predict from), predicted wait
// strictly over the deadline rejects with a Retry-After that grows with
// the excess, the borderline (predicted == deadline) is admitted, the
// in-service job counts toward the prediction, and disabling the
// feature admits everything the bounded depth allows.
func TestEarlyRejectionTable(t *testing.T) {
	mk := func(earlyReject bool, ewma time.Duration, backlog int, inFlight bool) (*Server, *tenant) {
		s := &Server{adm: newAdmission(0, earlyReject)}
		tn := &tenant{srv: s, depth: 64, flow: s.adm.register(1)}
		tn.runEWMANanos.Store(int64(ewma))
		tn.inFlight.Store(inFlight)
		s.adm.mu.Lock()
		for i := 0; i < backlog; i++ {
			s.adm.q.Enqueue(tn.flow, &job{}, ewma.Seconds())
		}
		s.adm.mu.Unlock()
		return s, tn
	}
	cases := []struct {
		name        string
		earlyReject bool
		ewma        time.Duration
		backlog     int
		inFlight    bool
		deadline    time.Duration
		wantVerdict admitVerdict
		wantRetry   time.Duration
	}{
		{"no history admits blind", true, 0, 10, true, time.Millisecond, admitOK, 0},
		{"predicted exceeds deadline", true, 100 * time.Millisecond, 4, false, 300 * time.Millisecond, admitEarlyReject, time.Second},
		{"borderline admitted", true, 100 * time.Millisecond, 3, false, 300 * time.Millisecond, admitOK, 0},
		{"in-service counts", true, 100 * time.Millisecond, 3, true, 300 * time.Millisecond, admitEarlyReject, time.Second},
		{"disabled admits", false, 100 * time.Millisecond, 10, true, time.Millisecond, admitOK, 0},
		{"retry scales with excess", true, time.Second, 9, false, 2 * time.Second, admitEarlyReject, 7 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, tn := mk(tc.earlyReject, tc.ewma, tc.backlog, tc.inFlight)
			verdict, retry, victim := s.adm.submit(tn, &job{}, tc.deadline)
			if verdict != tc.wantVerdict {
				t.Fatalf("verdict = %d, want %d", verdict, tc.wantVerdict)
			}
			if victim != nil {
				t.Fatal("no global cap configured, yet a job was shed")
			}
			if tc.wantVerdict == admitEarlyReject && retry != tc.wantRetry {
				t.Fatalf("retry = %v, want %v", retry, tc.wantRetry)
			}
		})
	}
	// Ordering: a job that is both doomed (predicted > deadline) and
	// facing a full queue reports early_reject — the more actionable
	// verdict (waiting for queue room would not help it).
	s, tn := mk(true, 100*time.Millisecond, 64, false)
	if verdict, _, _ := s.adm.submit(tn, &job{}, time.Millisecond); verdict != admitEarlyReject {
		t.Fatalf("doomed job at a full queue: verdict %d, want early reject", verdict)
	}
	// And with a healthy deadline, the same full queue reports queue_full.
	s, tn = mk(true, 100*time.Millisecond, 64, false)
	if verdict, _, _ := s.adm.submit(tn, &job{}, time.Hour); verdict != admitQueueFull {
		t.Fatalf("full queue with a generous deadline: verdict %d, want queue full", verdict)
	}
}

// TestShedDecisionTable pins the global-cap shed policy at the admission
// layer: at the cap, a well-placed (heavy-weight) arrival displaces the
// worst-placed queued tail; an arrival that would itself be the worst
// placed is rejected with the overload reason — including the
// same-tenant case, whose own tags are monotone.
func TestShedDecisionTable(t *testing.T) {
	mk := func() (*Server, *tenant, *tenant) {
		s := &Server{adm: newAdmission(4, false)}
		gold := &tenant{srv: s, name: "gold", depth: 8, flow: s.adm.register(2)}
		bronze := &tenant{srv: s, name: "bronze", depth: 8, flow: s.adm.register(1)}
		gold.runEWMANanos.Store(int64(100 * time.Millisecond))
		bronze.runEWMANanos.Store(int64(100 * time.Millisecond))
		s.adm.mu.Lock()
		for i := 0; i < 2; i++ {
			s.adm.q.Enqueue(gold.flow, &job{tn: gold}, 0.1)
			s.adm.q.Enqueue(bronze.flow, &job{tn: bronze}, 0.1)
		}
		s.adm.mu.Unlock()
		return s, gold, bronze
	}

	s, gold, bronze := mk()
	verdict, _, victim := s.adm.submit(gold, &job{tn: gold}, time.Hour)
	if verdict != admitOK || victim == nil || victim.tn != bronze {
		t.Fatalf("gold arrival at cap: verdict %d victim %+v, want admit with a bronze victim", verdict, victim)
	}
	if got := s.adm.lenOf(bronze.flow); got != 1 {
		t.Fatalf("bronze backlog after shed = %d, want 1", got)
	}
	if got := s.adm.total(); got != 4 {
		t.Fatalf("total after shed+admit = %d, want the cap (4)", got)
	}

	// A bronze arrival is the worst-placed work itself: rejected, nothing
	// shed, backlog unchanged.
	s, _, bronze = mk()
	verdict, retry, victim := s.adm.submit(bronze, &job{tn: bronze}, time.Hour)
	if verdict != admitOverload || victim != nil {
		t.Fatalf("bronze arrival at cap: verdict %d victim %v, want overload reject", verdict, victim)
	}
	if retry < time.Second {
		t.Fatalf("overload reject without a Retry-After floor: %v", retry)
	}
	if got := s.adm.total(); got != 4 {
		t.Fatalf("total after overload reject = %d, want unchanged 4", got)
	}

	// Equal weights degenerate: an arrival never displaces anything (its
	// own tag is always the worst or tied), so the global cap behaves as
	// a plain reject — today's behavior.
	s = &Server{adm: newAdmission(2, false)}
	a := &tenant{srv: s, name: "a", depth: 8, flow: s.adm.register(1)}
	b := &tenant{srv: s, name: "b", depth: 8, flow: s.adm.register(1)}
	s.adm.mu.Lock()
	s.adm.q.Enqueue(a.flow, &job{tn: a}, 1)
	s.adm.q.Enqueue(b.flow, &job{tn: b}, 1)
	s.adm.mu.Unlock()
	if verdict, _, victim := s.adm.submit(a, &job{tn: a}, time.Hour); verdict != admitOverload || victim != nil {
		t.Fatalf("equal weights at cap: verdict %d victim %v, want plain overload reject", verdict, victim)
	}

	// Cold-tenant regression: a weight-2 tenant with NO run history
	// arriving at a cap full of warm cheap bronze work must still shed its
	// way in. Its cost comes from the server-wide fallback EWMA, not
	// wfq.DefaultCost — a unit-constant cost would make the newcomer's tag
	// the worst in the queue and starve it forever (rejected jobs never
	// warm the EWMA).
	s, gold, bronze = mk()
	gold.runEWMANanos.Store(0)
	s.adm.mu.Lock()
	for {
		if _, ok := s.adm.q.Pop(gold.flow); !ok {
			break
		}
	}
	s.adm.q.Enqueue(bronze.flow, &job{tn: bronze}, 0.1)
	s.adm.q.Enqueue(bronze.flow, &job{tn: bronze}, 0.1)
	s.adm.mu.Unlock()
	s.adm.observeCost(100 * time.Millisecond) // server-wide history from bronze runs
	verdict, _, victim = s.adm.submit(gold, &job{tn: gold}, time.Hour)
	if verdict != admitOK || victim == nil || victim.tn != bronze {
		t.Fatalf("cold gold at warm cap: verdict %d victim %+v, want admit with a bronze victim", verdict, victim)
	}
}

// TestSilentExpiryReplaced is the regression pair for the path early
// rejection replaces: with prediction disabled a doomed job still takes
// the legacy expired-while-queued 504 (never silently dropped), and
// with it enabled the same doomed job gets an immediate 429 +
// Retry-After + reason header instead of burning its deadline in the
// queue.
func TestSilentExpiryReplaced(t *testing.T) {
	run := func(t *testing.T, noEarly bool) (*http.Response, JobResult) {
		_, hs := newTestServer(t, Config{
			Cores: 2, Policy: rt.DWS, MaxTenants: 1, QueueDepth: 8,
			NoEarlyReject: noEarly,
		})
		// Warm the EWMA so the predictor has history.
		if resp, _ := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Mergesort", Size: 0.4}); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up: status %d", resp.StatusCode)
		}
		// Pin the runner, then submit a job that cannot make its deadline.
		pin := make(chan struct{})
		go func() {
			defer close(pin)
			submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Mergesort", Size: 1.0})
		}()
		// The warm-up's response came back after its in-flight flag
		// cleared, so the flag set again means the pin is running.
		deadline := time.Now().Add(10 * time.Second)
		for {
			var tenants []TenantInfo
			getJSON(t, hs.URL+"/v1/tenants", &tenants)
			if len(tenants) == 1 && tenants[0].InFlight {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("pin never started")
			}
			time.Sleep(2 * time.Millisecond)
		}
		resp, res := submit(t, hs.URL, JobRequest{
			Tenant: "a", Kernel: "FFT", Size: 0.02, DeadlineMS: 1,
		})
		<-pin
		return resp, res
	}

	t.Run("disabled keeps the 504 expiry", func(t *testing.T) {
		resp, _ := run(t, true)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504 (legacy expired-while-queued)", resp.StatusCode)
		}
	})
	t.Run("enabled rejects at submit", func(t *testing.T) {
		resp, _ := run(t, false)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429 (early rejection)", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("early rejection without a Retry-After header")
		}
		if got := resp.Header.Get(RejectReasonHeader); got != reasonEarlyReject {
			t.Errorf("reject reason %q, want %q", got, reasonEarlyReject)
		}
	})
}
