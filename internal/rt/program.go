package rt

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/coretable"
	"dws/internal/deque"
)

// Program is one work-stealing program hosted by a System: k workers (one
// per core slot), an injection queue for root tasks, and — under DWS and
// DWS-NC — a coordinator goroutine.
type Program struct {
	sys  *System
	name string
	idx  int
	id   int32 // 1-based table ID
	home []int

	workers []*worker

	// inject receives root tasks from Run; workers drain it like a
	// stealable deque.
	inject *deque.Locked[taskNode]

	// nodeOverflow rebalances recycled taskNodes between workers: a
	// stolen task finishes (and recycles its node) on the thief, so a
	// spawn-heavy worker's free-list drains while the thieves' fill; the
	// ring routes the surplus back (pool.go).
	nodeOverflow *deque.Bounded[taskNode]

	// obs caches sys.cfg.Observer so the emit fast path is a single
	// nil-check on the program itself, not a pointer chase through the
	// system config.
	obs Observer

	active    atomic.Int64
	runActive atomic.Bool
	shutdown  atomic.Bool
	beatsOff  atomic.Bool // fault injection: suppress lease heartbeats

	// qosState carries the declared arbitration weight/SLO and the
	// queue-wait demand signal (arbiter.go).
	qosState

	runMu     sync.Mutex // serialises Run calls
	coordStop chan struct{}
	wg        sync.WaitGroup
	crng      *rand.Rand // coordinator-goroutine RNG

	st progStats
}

func newProgram(s *System, name string, idx int) *Program {
	p := &Program{
		sys:          s,
		name:         name,
		idx:          idx,
		id:           int32(idx + 1),
		home:         coretable.HomeCores(s.cfg.Cores, s.cfg.Programs, idx),
		inject:       deque.NewLocked[taskNode](8),
		nodeOverflow: deque.NewBounded[taskNode](nodeOverflowCap),
		obs:          s.cfg.Observer,
		coordStop:    make(chan struct{}),
	}
	p.st.init(s.cfg.Cores)
	for c := 0; c < s.cfg.Cores; c++ {
		p.workers = append(p.workers, newWorker(p, c))
	}
	// Victim sets: all siblings (EP: home siblings only), partitioned by
	// topology — same-socket victims first, then the remote ones grouped
	// by ascending socket so a steal-back scan can jump straight to the
	// robbing socket's segment (worker.stealOrder). Under a flat topology
	// every victim is local and the layout is the old flat sibling list.
	tp := s.cfg.Topology
	pool := p.workers
	if s.cfg.Policy == EP {
		pool = nil
		for _, c := range p.home {
			pool = append(pool, p.workers[c])
		}
	}
	for _, w := range p.workers {
		var vs []*worker
		for _, v := range pool {
			if v != w && v.socket == w.socket {
				vs = append(vs, v)
			}
		}
		w.nLocal = len(vs)
		w.sockOff = make([]int, tp.NumSockets())
		for i := range w.sockOff {
			w.sockOff[i] = -1
		}
		for sock := 0; sock < tp.NumSockets(); sock++ {
			if sock == w.socket {
				continue
			}
			start := len(vs)
			for _, v := range pool {
				if v != w && v.socket == sock {
					vs = append(vs, v)
				}
			}
			if len(vs) > start {
				w.sockOff[sock] = start
			}
		}
		w.victims = vs
		w.scan = make([]*worker, len(vs))
	}
	return p
}

// Name returns the program's name.
func (p *Program) Name() string { return p.name }

// Slot returns the program's slot index in its system (0-based; its
// 1-based core allocation table ID is Slot()+1).
func (p *Program) Slot() int { return p.idx }

// Home returns the program's home core slots (the initial even share).
func (p *Program) Home() []int { return append([]int(nil), p.home...) }

// Stats returns a snapshot of the program's scheduler counters.
func (p *Program) Stats() Stats { return p.st.snapshot() }

// emit reports a scheduling transition of this program to the system
// observer (a no-op without one). The nil-check on the cached observer is
// the entire unobserved cost.
func (p *Program) emit(ev ObsEvent) {
	if p.obs != nil {
		ev.Prog = p.id
		p.obs(ev)
	}
}

// start launches the worker goroutines (and coordinator) according to the
// system policy and the initial allocation — the paper's even split, or
// the entitled block when an arbiter has already published one (a late
// joiner starts on whatever home the arbiter left it; the arbiter's next
// tick sees the join and republishes).
func (p *Program) start() {
	home := p.homeCores()
	isHome := make(map[int]bool, len(home))
	for _, c := range home {
		isHome[c] = true
	}
	switch p.sys.cfg.Policy {
	case ABP:
		for _, w := range p.workers {
			p.launch(w, stateActive)
		}
	case EP:
		for _, c := range p.home {
			p.launch(p.workers[c], stateActive)
		}
	case DWS:
		// Join the lease (heartbeat stamped) before taking any core, so
		// there is no window where the program occupies cores without a
		// live lease a survivor could check.
		epoch := p.sys.table.Join(p.id)
		p.emit(ObsEvent{Kind: ObsJoin, Core: -1, Epoch: epoch, Home: home})
		p.takeHome(home)
		for _, w := range p.workers {
			if isHome[w.id] {
				p.launch(w, stateActive)
			} else {
				p.launch(w, stateSleeping)
			}
		}
	case DWSNC:
		for _, w := range p.workers {
			if isHome[w.id] {
				p.launch(w, stateActive)
			} else {
				p.launch(w, stateSleeping)
			}
		}
	}
	if p.sys.cfg.Policy == DWS || p.sys.cfg.Policy == DWSNC {
		p.wg.Add(1)
		go p.coordinate()
	}
}

func (p *Program) launch(w *worker, initial int32) {
	w.state.Store(initial)
	if initial == stateActive {
		p.active.Add(1)
	}
	p.wg.Add(1)
	go w.loop(initial == stateSleeping)
}

// takeHome (re)establishes the program's home allocation through the CAS
// protocol: free home cores are claimed and borrowed ones reclaimed (the
// eviction flag tells the borrower to stop). Unlike a blind install this
// is safe when other programs — possibly in other OS processes — already
// run on the shared table: a late or restarted joiner takes its home
// share back the same way a reclaiming owner does. home is the block the
// workers launch on (Program.homeCores at start), so the cores taken and
// the workers started active always agree.
func (p *Program) takeHome(home []int) {
	t := p.sys.table
	epoch := t.EntitlementEpoch()
	for _, c := range home {
		switch occ := t.Occupant(c); {
		case occ == p.id:
			// Already ours (restart).
		case occ == coretable.Free:
			if t.ClaimFree(c, p.id) {
				p.st.claims.Add(1)
				p.emit(ObsEvent{Kind: ObsClaim, Core: c})
			}
		default:
			if t.Reclaim(c, p.id, occ) {
				p.st.reclaims.Add(1)
				p.emit(ObsEvent{Kind: ObsReclaim, Core: c, Victim: occ, Epoch: epoch})
			}
		}
	}
}

// FailBeats is a fault-injection hook for tests and demos: while set, the
// coordinator stops beating the program's core-table lease, so survivors
// eventually declare the program dead and sweep its cores — exactly what
// happens when a real program wedges or its process is SIGKILLed.
func (p *Program) FailBeats(off bool) { p.beatsOff.Store(off) }

// ErrClosed is returned by Run on a closed program.
var ErrClosed = errors.New("rt: program is closed")

// Run executes root to completion on the program's workers, blocking the
// caller. Consecutive runs model the paper's back-to-back repetitions: a
// restarting program re-takes its home slots first (a fresh process would
// start with its even share).
func (p *Program) Run(root Task) error {
	if p.shutdown.Load() {
		return ErrClosed
	}
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.shutdown.Load() {
		return ErrClosed
	}

	rootFrame := &frame{done: make(chan struct{})}
	rootFrame.pending.Store(1)
	p.runActive.Store(true)
	p.st.rootSpawns.Add(1) // the root injection
	p.emit(ObsEvent{Kind: ObsRunStart, Core: -1})
	p.inject.Push(&taskNode{fn: root, parent: rootFrame})
	p.regrabHome()

	// Wait for completion; if every worker managed to fall asleep in the
	// window before the injection became visible, re-wake the home slots.
	tick := p.sys.cfg.Clock.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-rootFrame.done:
			p.runActive.Store(false)
			p.st.runs.Add(1)
			p.emit(ObsEvent{Kind: ObsRunDone, Core: -1,
				Spawned: p.st.spawns(), Executed: p.st.execs(),
				LocalSteals: p.st.localSteals(), RemoteSteals: p.st.remoteSteals()})
			return nil
		case <-tick.C():
			if p.active.Load() == 0 {
				p.regrabHome()
			}
		}
	}
}

// regrabHome re-establishes the initial even allocation for this program:
// free home slots are claimed, borrowed ones reclaimed (DWS), and the
// affined workers woken.
func (p *Program) regrabHome() {
	switch p.sys.cfg.Policy {
	case ABP, EP:
		return // workers never sleep
	case DWSNC:
		for _, c := range p.home {
			p.wake(p.workers[c])
		}
	case DWS:
		t := p.sys.table
		home := p.homeCores()
		epoch := t.EntitlementEpoch()
		for _, c := range home {
			switch occ := t.Occupant(c); {
			case occ == p.id:
				p.wake(p.workers[c])
			case occ == coretable.Free:
				if t.ClaimFree(c, p.id) {
					p.st.claims.Add(1)
					p.emit(ObsEvent{Kind: ObsClaim, Core: c})
					p.wake(p.workers[c])
				}
			default:
				if t.Reclaim(c, p.id, occ) {
					p.st.reclaims.Add(1)
					p.emit(ObsEvent{Kind: ObsReclaim, Core: c, Victim: occ, Epoch: epoch})
					p.wake(p.workers[c])
				}
			}
		}
	}
}

// wake transitions a sleeping worker to active. It is a no-op if the
// worker is not (yet) asleep; the coordinator's next tick retries.
func (p *Program) wake(w *worker) bool {
	if !w.state.CompareAndSwap(stateSleeping, stateActive) {
		return false
	}
	p.active.Add(1)
	p.st.wakes.Add(1)
	p.emit(ObsEvent{Kind: ObsWake, Core: w.id})
	w.wakeCh <- struct{}{}
	return true
}

// Close stops the program's workers and coordinator, waits for them, and
// releases every core slot the program still occupies (so co-running
// programs can claim them, like a process exit would).
func (p *Program) Close() {
	if p.shutdown.Swap(true) {
		return
	}
	close(p.coordStop)
	// Unblock sleeping workers so they observe the shutdown flag. A worker
	// racing into park() can have its state still "active" here and miss a
	// single wake, so retry until every goroutine has exited. The retry
	// timer is created once and re-armed: a bare time.After here would
	// allocate (and leak until expiry) one timer per iteration when the
	// loop spins.
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	retry := p.sys.cfg.Clock.NewTimer(time.Millisecond)
	defer retry.Stop()
waitLoop:
	for {
		for _, w := range p.workers {
			p.wake(w)
		}
		select {
		case <-done:
			break waitLoop
		case <-retry.C():
			retry.Reset(time.Millisecond)
		}
	}
	if p.sys.cfg.Policy == DWS {
		for c := 0; c < p.sys.cfg.Cores; c++ {
			if p.sys.table.Release(c, p.id) {
				p.emit(ObsEvent{Kind: ObsRelease, Core: c})
			}
		}
		// Clean departure: drop the lease so survivors never sweep (and
		// never double-free) this program's ID.
		p.sys.table.Leave(p.id)
	}
	// Only after every goroutine has exited and every table entry is
	// released may the slot (and with it the 1-based table ID) be reused.
	p.sys.detach(p)
}

// coordinate is the coordinator loop (§3.3) for DWS and DWS-NC. Under
// DWS it also keeps the program's lease alive (one heartbeat per period)
// and sweeps dead co-runners' leases, freeing their cores — the recovery
// path for programs that died without releasing (kill -9, OOM).
func (p *Program) coordinate() {
	defer p.wg.Done()
	ticker := p.sys.cfg.Clock.NewTicker(p.sys.cfg.CoordPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-p.coordStop:
			return
		case <-ticker.C():
			if p.sys.cfg.Policy == DWS {
				t := p.sys.table
				if !p.beatsOff.Load() {
					t.Beat(p.id)
				}
				if dead := t.SweepExpired(p.id, p.sys.cfg.LeaseTTL); len(dead) > 0 {
					for _, e := range dead {
						p.st.deadSweeps.Add(1)
						p.st.coresRecovered.Add(int64(e.Cores))
					}
					p.sys.noteSwept(p.id, dead)
				}
			}
			p.coordTick()
		}
	}
}

// coordTick measures demand (N_b queued tasks, N_a active workers) and
// wakes N_w = N_b / N_a sleeping workers following the paper's three
// cases.
func (p *Program) coordTick() {
	if !p.runActive.Load() {
		return
	}
	nb := p.inject.Len()
	for _, w := range p.workers {
		nb += w.deque.Len()
	}
	if nb == 0 {
		return
	}
	na := int(p.active.Load())
	nw := nb
	if na > 0 {
		nw = nb / na
	}
	if nw <= 0 {
		return
	}

	ev := ObsEvent{Kind: ObsCoordTick, Core: -1, NB: nb, NA: na, NW: nw}

	if p.sys.cfg.Policy == DWSNC {
		for _, w := range p.workers {
			if nw == 0 {
				break
			}
			if w.state.Load() == stateSleeping && p.wake(w) {
				nw--
				ev.Woken++
			}
		}
		p.emit(ev)
		return
	}

	// DWS: snapshot the observation first so the emitted event carries the
	// (N_f, N_r) tuple the three-case rule was applied to; the action loops
	// below re-check every condition through the CAS protocol, so a stale
	// snapshot entry only costs a skipped wake.
	t := p.sys.table
	var frees []int
	for _, c := range shuffled(p.coordRNG(), t.FreeCores()) {
		if p.workers[c].state.Load() == stateSleeping {
			frees = append(frees, c)
		}
	}
	ev.NF = len(frees)
	var recls []int
	for _, c := range p.homeCores() {
		if p.workers[c].state.Load() != stateSleeping {
			continue
		}
		if occ := t.Occupant(c); occ != p.id && occ != coretable.Free {
			recls = append(recls, c)
		}
	}
	ev.NR = len(recls)
	// The entitlement epoch the reclaim targets derive from, read after
	// homeCores so a concurrent publish can only make the stamp newer —
	// observers judging reclaim legality defer to the stamped batch.
	entEpoch := t.EntitlementEpoch()

	// Case 1 — free slots first.
	for _, c := range frees {
		if nw == 0 {
			break
		}
		w := p.workers[c]
		if w.state.Load() != stateSleeping {
			continue
		}
		if t.ClaimFree(c, p.id) {
			p.st.claims.Add(1)
			p.emit(ObsEvent{Kind: ObsClaim, Core: c})
			ev.Claimed++
			if p.wake(w) {
				nw--
				ev.Woken++
			} else {
				// The worker raced away; return the slot.
				if t.Release(c, p.id) {
					p.emit(ObsEvent{Kind: ObsRelease, Core: c})
				}
			}
		}
	}
	// Cases 2 and 3 — reclaim home slots from their borrowers, never more
	// than N_r and never slots other programs rightfully hold.
	// FaultSkipReclaim drops these cases for invariant-checker tests.
	if !p.sys.cfg.FaultSkipReclaim {
		for _, c := range recls {
			if nw == 0 {
				break
			}
			w := p.workers[c]
			if w.state.Load() != stateSleeping {
				continue
			}
			occ := t.Occupant(c)
			if occ == p.id || occ == coretable.Free {
				continue
			}
			if t.Reclaim(c, p.id, occ) {
				p.st.reclaims.Add(1)
				p.emit(ObsEvent{Kind: ObsReclaim, Core: c, Victim: occ, Epoch: entEpoch})
				ev.Reclaimed++
				if p.wake(w) {
					nw--
					ev.Woken++
				}
			}
		}
	}
	p.emit(ev)
}

// coordRNG returns the coordinator's RNG (lazily created; the coordinator
// is a single goroutine).
func (p *Program) coordRNG() *rand.Rand {
	if p.crng == nil {
		p.crng = rand.New(rand.NewSource(int64(p.idx)*7919 + 17))
	}
	return p.crng
}

func shuffled(rng *rand.Rand, xs []int) []int {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}
