package schedcheck

import (
	"sync"
	"testing"
	"time"

	"dws/internal/arbiter"
	"dws/internal/rt"
	"dws/internal/vclock"
)

// entRow builds one ObsEntitle row of a batch.
func entRow(prog int32, old, new, floor int, score float64, active bool, epoch int64, batch int) rt.ObsEvent {
	return rt.ObsEvent{
		Kind: rt.ObsEntitle, Prog: prog, Core: -1,
		EOld: old, ENew: new, Floor: floor, Score: score,
		Weight: score, Active: active, Trigger: "demand",
		Epoch: epoch, Batch: batch,
	}
}

// equalBatch publishes the (2, 2) equal split on a 4-core/2-program
// checker — the degenerate batch every test starts from.
func equalBatch(c *Checker, epoch int64) {
	c.Observe(entRow(1, int(c.ents[0]), 2, 1, 1, true, epoch, 2))
	c.Observe(entRow(2, int(c.ents[1]), 2, 1, 1, true, epoch, 2))
}

func TestCheckerEntitlementSumOrder(t *testing.T) {
	// Growth emitted before the matching shrink: mid-batch the modeled sum
	// exceeds k.
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	equalBatch(c, 1)
	if err := c.Err(); err != nil {
		t.Fatalf("legal equal batch flagged: %v", err)
	}
	c.Observe(entRow(1, 2, 3, 1, 3, true, 2, 2)) // grow first: sum 3+2=5
	c.Observe(entRow(2, 2, 1, 1, 1, true, 2, 2))
	if !hasViolation(c, "entitlement-sum") {
		t.Fatal("grow-before-shrink batch not flagged")
	}

	// The legal twin: shrink first, same final vector.
	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	equalBatch(c, 1)
	c.Observe(entRow(2, 2, 1, 1, 1, true, 2, 2))
	c.Observe(entRow(1, 2, 3, 1, 3, true, 2, 2))
	if err := c.Err(); err != nil {
		t.Fatalf("shrink-first batch flagged: %v", err)
	}
}

func TestCheckerEntitlementEpochMonotone(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	equalBatch(c, 1)
	// A row arriving after its epoch's batch completed.
	c.Observe(entRow(1, 2, 2, 1, 1, true, 1, 2))
	if !hasViolation(c, "entitlement-epoch-monotone") {
		t.Fatal("repeated epoch not flagged")
	}

	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	equalBatch(c, 5)
	c.Observe(entRow(1, 2, 2, 1, 1, true, 3, 2))
	if !hasViolation(c, "entitlement-epoch-monotone") {
		t.Fatal("regressing epoch not flagged")
	}
}

func TestCheckerEntitlementFloor(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	// An active program published below its stated weighted floor.
	c.Observe(entRow(1, 0, 1, 2, 1, true, 1, 2))
	if !hasViolation(c, "entitlement-floor") {
		t.Fatal("starvation below the weighted floor not flagged")
	}

	// Idle programs may legally hold less than a floor.
	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(entRow(1, 0, 0, 0, 0, false, 1, 2))
	c.Observe(entRow(2, 0, 4, 1, 1, true, 1, 2))
	if hasViolation(c, "entitlement-floor") {
		t.Fatalf("idle zero entitlement flagged: %v", c.Violations())
	}
}

func TestCheckerEntitlementApportion(t *testing.T) {
	// Published (2, 2) while the reported scores say 2:1 — the observable
	// signature of an arbiter that ignores weights. Apportion(4, [2 1],
	// [1 1]) = (3, 1) ≠ (2, 2).
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(entRow(1, 0, 2, 1, 2, true, 1, 2))
	c.Observe(entRow(2, 0, 2, 1, 1, true, 1, 2))
	if !hasViolation(c, "entitlement-apportion") {
		t.Fatal("weights-ignored batch not flagged")
	}

	// The legal twin: the published vector is the recomputed apportionment.
	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(entRow(1, 0, 3, 1, 2, true, 1, 2))
	c.Observe(entRow(2, 0, 1, 1, 1, true, 1, 2))
	if err := c.Err(); err != nil {
		t.Fatalf("consistent weighted batch flagged: %v", err)
	}
}

func TestCheckerReclaimEntitledHome(t *testing.T) {
	// Static homes on 4 cores / 2 programs are {0,1} and {2,3}. Entitle p1
	// to 3 cores: its elastic home becomes {0,1,2}.
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(entRow(1, 0, 3, 1, 3, true, 1, 2))
	c.Observe(entRow(2, 0, 1, 1, 1, true, 1, 2))
	c.Observe(rt.ObsEvent{Kind: rt.ObsReclaim, Prog: 1, Core: 2, Victim: 2})
	if err := c.Err(); err != nil {
		t.Fatalf("reclaim inside the entitled block flagged: %v", err)
	}

	// Core 3 is outside p1's entitled block; the reclaim is held pending
	// (a justifying batch may be in flight), surfaces in Violations(), and
	// becomes a recorded violation when the next batch fails to justify it.
	c.Observe(rt.ObsEvent{Kind: rt.ObsReclaim, Prog: 1, Core: 3, Victim: 2})
	if !hasViolation(c, "reclaim-home-only") {
		t.Fatal("unjustified reclaim not surfaced while pending")
	}
	c.Observe(entRow(1, 3, 3, 1, 3, true, 2, 2))
	c.Observe(entRow(2, 1, 1, 1, 1, true, 2, 2))
	if !hasViolation(c, "reclaim-home-only") {
		t.Fatal("reclaim outside the entitled home not flagged after the batch")
	}

	// Previous-block grace: after a shrink batch, a reclaim of a core from
	// the pre-shrink block is still legal (the coordinator may have read
	// the table just before the publish).
	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(entRow(1, 0, 3, 1, 3, true, 1, 2))
	c.Observe(entRow(2, 0, 1, 1, 1, true, 1, 2))
	c.Observe(entRow(1, 3, 1, 1, 1, true, 2, 2)) // shrink p1 to {0}
	c.Observe(entRow(2, 1, 3, 1, 3, true, 2, 2)) // p2 grows to {1,2,3}
	c.Observe(rt.ObsEvent{Kind: rt.ObsReclaim, Prog: 1, Core: 2, Victim: 2})
	if err := c.Err(); err != nil {
		t.Fatalf("reclaim in the previous entitled block flagged: %v", err)
	}
	// And the new owner may reclaim its freshly entitled core 1 (outside
	// its static home {2,3}).
	c.Observe(rt.ObsEvent{Kind: rt.ObsReclaim, Prog: 2, Core: 1, Victim: 1})
	if err := c.Err(); err != nil {
		t.Fatalf("reclaim of a freshly entitled core flagged: %v", err)
	}
}

// TestFaultIgnoreWeightsCaught is the arbitration fault-injection
// acceptance test: a live system whose arbiter apportions as if every
// tenant weighed the same — while truthfully reporting the declared
// scores — must be caught by the checker's apportionment recomputation,
// and the clean twin must stay silent.
func TestFaultIgnoreWeightsCaught(t *testing.T) {
	run := func(fault bool) *Checker {
		t.Helper()
		fake := vclock.NewFake()
		ck := New(Options{Cores: 6, Programs: 2, Policy: rt.DWS})
		period := 5 * time.Millisecond
		sys, err := rt.NewSystem(rt.Config{
			Cores: 6, Programs: 2, Policy: rt.DWS,
			CoordPeriod: period, ArbiterPeriod: period,
			Clock: fake, Observer: ck.Observe,
			Arbiter: &arbiter.Config{FaultIgnoreWeights: fault},
		})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		defer sys.Close()
		gold, err := sys.NewProgram("gold")
		if err != nil {
			t.Fatal(err)
		}
		bronze, err := sys.NewProgram("bronze")
		if err != nil {
			t.Fatal(err)
		}
		gold.SetQoS(2, 0)
		// A running gate task per program keeps both active (N_a ≥ 1) on
		// every arbiter tick, so the weights — not which idle workers
		// happened to fall asleep first — decide the split.
		started := make(chan struct{})
		release := make(chan struct{})
		gate := func(*rt.Ctx) {
			started <- struct{}{}
			<-release
		}
		var runs sync.WaitGroup
		for _, p := range []*rt.Program{gold, bronze} {
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
		// Waiters: sweeper, arbiter loop, two coordinators and the two
		// Runs' re-wake tickers. The first tick publishes (init trigger);
		// the second settles it.
		fake.BlockUntil(6)
		fake.Advance(period)
		fake.Advance(period)
		return ck
	}

	clean := run(false)
	if err := clean.Err(); err != nil {
		t.Fatalf("clean weighted arbitration flagged: %v", err)
	}
	if clean.Count(rt.ObsEntitle) == 0 {
		t.Fatal("clean run emitted no entitle batches")
	}

	faulty := run(true)
	if !hasViolation(faulty, "entitlement-apportion") {
		t.Fatalf("injected ignore-weights fault not caught; violations: %v",
			faulty.Violations())
	}
}
