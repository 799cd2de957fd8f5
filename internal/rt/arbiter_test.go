package rt

import (
	"sync"
	"testing"
	"time"

	"dws/internal/vclock"
)

// entitles filters the collector for arbiter decision rows.
func (o *obsCollector) entitles() []ObsEvent {
	o.mu.Lock()
	defer o.mu.Unlock()
	var es []ObsEvent
	for _, ev := range o.evs {
		if ev.Kind == ObsEntitle {
			es = append(es, ev)
		}
	}
	return es
}

// TestArbiterPublishesWeightedEntitlements drives the system arbiter on a
// fake clock: 2:1 weights on 6 cores must publish a (4, 2) split on the
// first tick (init trigger), and a later weight change must survive the
// hysteresis before republishing an equal split.
//
// Both programs hold a running gate task for the whole test, so each
// reads N_a ≥ 1 (active) on every arbiter tick. Without it, idle workers
// racing to sleep before tick 1 could leave one program reading inactive
// and the other taking every core.
func TestArbiterPublishesWeightedEntitlements(t *testing.T) {
	clk := vclock.NewFake()
	col := &obsCollector{}
	period := 5 * time.Millisecond
	sys, err := NewSystem(Config{
		Cores: 6, Programs: 2, Policy: DWS,
		CoordPeriod: period, ArbiterPeriod: period,
		Clock: clk, Observer: col.hook(),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	if sys.Arbiter() == nil {
		t.Fatal("Arbiter() = nil with ArbiterPeriod set")
	}

	p1, err := sys.NewProgram("gold")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sys.NewProgram("bronze")
	if err != nil {
		t.Fatal(err)
	}
	p1.SetQoS(2, 0)
	p2.SetQoS(1, 0)
	if w, slo := p1.QoS(); w != 2 || slo != 0 {
		t.Fatalf("QoS roundtrip = (%v, %v)", w, slo)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	gate := func(*Ctx) {
		started <- struct{}{}
		<-release
	}
	var runs sync.WaitGroup
	for _, p := range []*Program{p1, p2} {
		runs.Add(1)
		go func() {
			defer runs.Done()
			if err := p.Run(gate); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	defer func() {
		close(release)
		runs.Wait()
	}()
	<-started
	<-started

	// Waiters: system sweeper, arbiter loop, two program coordinators and
	// the two Runs' re-wake tickers. Advance delivers a tick synchronously
	// but returns before the handler finishes; the following Advance
	// cannot deliver until the previous handler looped back to its ticker,
	// so state from tick N is settled once Advance N+1 returns.
	clk.BlockUntil(6)
	clk.Advance(period) // tick 1: init publish
	clk.Advance(period) // tick 2: stable (and settles tick 1)
	if got := sys.Entitlements(); got[0] != 4 || got[1] != 2 {
		t.Fatalf("entitlements after first tick = %v, want [4 2 ...]", got)
	}
	ents := col.entitles()
	if len(ents) != 2 {
		t.Fatalf("got %d entitle events, want 2: %+v", len(ents), ents)
	}
	for _, ev := range ents {
		if ev.Trigger != "init" || ev.Epoch != 1 || ev.Batch != 2 {
			t.Fatalf("entitle row = %+v, want trigger=init epoch=1 batch=2", ev)
		}
		if ev.Prog == p1.id && (ev.ENew != 4 || ev.Weight != 2) {
			t.Fatalf("gold row = %+v, want ENew=4 Weight=2", ev)
		}
	}

	// Equalise the weights: hysteresis (default 2) delays the republish to
	// the second tick that sees the changed proposal.
	p2.SetQoS(2, 0)
	clk.Advance(period) // tick 3: proposal changes, hysteresis 1/2
	clk.Advance(period) // tick 4: hysteresis 2/2 → publish
	clk.Advance(period) // tick 5: settles tick 4
	if got := sys.Entitlements(); got[0] != 3 || got[1] != 3 {
		t.Fatalf("entitlements after weight change = %v, want [3 3 ...]", got)
	}
	last := col.entitles()
	if tr := last[len(last)-1].Trigger; tr != "weight" {
		t.Fatalf("republish trigger = %q, want weight", tr)
	}
}

// TestCoordTickReclaimsEntitledHome stages an unstarted program against a
// hand-published entitlement vector: the coordinator must reclaim a
// borrowed core of its *entitled* home even when that core lies outside
// its static HomeCores split — and, inversely, must leave a static home
// core alone once the entitlement has moved it to another program.
func TestCoordTickReclaimsEntitledHome(t *testing.T) {
	col := &obsCollector{}
	sys, err := NewSystem(Config{
		Cores: 4, Programs: 2, Policy: DWS,
		TSleep: 2, CoordPeriod: 5 * time.Millisecond,
		Clock: vclock.NewFake(), Observer: col.hook(),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()

	// Static home of slot 0 is {0, 1}; entitle it to 3 cores: {0, 1, 2}.
	if _, ok := sys.table.SetEntitlements([]int32{3, 1, 0, 0}, 0); !ok {
		t.Fatal("publish failed")
	}

	p := newProgram(sys, "T", 0)
	p.runActive.Store(true)
	for _, w := range p.workers {
		w.state.Store(stateSleeping)
	}
	for _, c := range []int{0, 1} {
		p.workers[c].state.Store(stateActive)
		p.active.Add(1)
	}
	dummy := func(*Ctx) {}
	for i := 0; i < 4; i++ {
		p.workers[0].deque.Push(&taskNode{fn: dummy, parent: &frame{}})
	}
	// p1 holds its static home; p2 holds cores 2 and 3.
	sys.table.InstallHome([]int{0, 1}, 1)
	sys.table.InstallHome([]int{2, 3}, 2)

	p.coordTick()

	// nb=4, na=2 → nw=2; no free cores; entitled home {0,1,2} has exactly
	// one reclaimable core: 2 (outside the static home). Core 3 stays p2's.
	if got := sys.table.Occupant(2); got != p.id {
		t.Fatalf("core 2 occupied by p%d, want reclaimed by p%d", got, p.id)
	}
	if !sys.table.EvictionPending(2) {
		t.Fatal("no pending eviction on reclaimed core 2")
	}
	if got := sys.table.Occupant(3); got != 2 {
		t.Fatalf("core 3 occupied by p%d, want untouched p2", got)
	}

	// Inverse: shrink slot 0 to one core; its static home core 1 now
	// belongs to slot 1's entitled block and must not be reclaimed.
	sys.table.Reset()
	if _, ok := sys.table.SetEntitlements([]int32{1, 3, 0, 0}, 0); !ok {
		t.Fatal("second publish failed")
	}
	q := newProgram(sys, "U", 0)
	q.runActive.Store(true)
	for _, w := range q.workers {
		w.state.Store(stateSleeping)
	}
	q.workers[0].state.Store(stateActive)
	q.active.Add(1)
	for i := 0; i < 4; i++ {
		q.workers[0].deque.Push(&taskNode{fn: dummy, parent: &frame{}})
	}
	sys.table.InstallHome([]int{0}, 1)
	sys.table.InstallHome([]int{1, 2, 3}, 2)

	q.coordTick()

	if got := sys.table.Occupant(1); got != 2 {
		t.Fatalf("core 1 occupied by p%d after shrink, want p2 kept it", got)
	}
}

func TestArbiterRequiresDWS(t *testing.T) {
	_, err := NewSystem(Config{
		Cores: 4, Programs: 2, Policy: EP,
		ArbiterPeriod: time.Millisecond,
	})
	if err == nil {
		t.Fatal("ArbiterPeriod accepted under EP")
	}
}

func TestReportQueueWaitKeepsWorst(t *testing.T) {
	sys, err := NewSystem(Config{Cores: 2, Programs: 1, Policy: DWS, Clock: vclock.NewFake()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := newProgram(sys, "T", 0)
	p.ReportQueueWait(3 * time.Millisecond)
	p.ReportQueueWait(9 * time.Millisecond)
	p.ReportQueueWait(5 * time.Millisecond)
	if got := p.takeQueueWait(); got != 9*time.Millisecond {
		t.Fatalf("takeQueueWait = %v, want 9ms", got)
	}
	if got := p.takeQueueWait(); got != 0 {
		t.Fatalf("second takeQueueWait = %v, want 0 (drained)", got)
	}
}
