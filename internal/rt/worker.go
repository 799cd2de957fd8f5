package rt

import (
	"runtime"
	"sync/atomic"

	"dws/internal/deque"
)

// Worker states.
const (
	stateActive int32 = iota
	stateSleeping
)

// worker is one worker goroutine, affined to core slot id for its whole
// life (the paper's w_ij ↔ c_j affinity).
//
// Field order groups owner-only hot state (deque pointer, RNG, free-lists,
// drought counter) away from the cross-goroutine fields: state is CASed by
// the coordinator on every wake and st is read by Stats(), so they sit
// behind a pad where their traffic cannot dirty the owner's line.
type worker struct {
	p      *Program
	id     int
	socket int // Topology.SocketOf(id); fixed for the worker's life

	deque *deque.Deque[taskNode]
	rng   uint64 // xorshift64* victim-selector state; owner-only
	pool  taskPool

	failedSteals int
	// remoteSkip is the remaining bounded remote-steal backoff: after a
	// full two-phase scan (including remote sockets) comes up empty, the
	// next remoteSkip scans stay same-socket only so a drought does not
	// keep hammering remote LLCs. Always 0 under a flat topology.
	remoteSkip int

	// victims is this worker's scan set, hoisted from the program at
	// construction: same-socket victims first (nLocal of them), then the
	// remote ones grouped by ascending socket; sockOff[s] is the offset of
	// socket s's segment in victims (-1 when s contributes none), which is
	// where a steal-back scan starts. scan is the preallocated buffer
	// stealOrder fills so trySteal never allocates.
	victims []*worker
	nLocal  int
	sockOff []int
	scan    []*worker

	_ [64]byte // owner-local fields above, cross-goroutine below

	st     *workerStats // this worker's shard of the program counters
	state  atomic.Int32
	wakeCh chan struct{}
	// robbedFrom is the socket id of the last thief that stole from this
	// worker across a socket boundary (-1 = none). The owner consumes it
	// on its next remote scan: a worker robbed remotely prefers stealing
	// back from the thief's socket, where its tasks (and their cache
	// lines) went.
	robbedFrom atomic.Int32
}

func newWorker(p *Program, id int) *worker {
	w := &worker{
		p:      p,
		id:     id,
		socket: p.sys.cfg.Topology.SocketOf(id),
		deque:  deque.New[taskNode](64),
		// Same per-(program, worker) seed family the old rand.Rand used;
		// xorshift needs a non-zero state, which the +1 guarantees.
		rng:    uint64(int64(p.idx)*1_000_003 + int64(id)*97 + 1),
		pool:   newTaskPool(),
		st:     &p.st.w[id],
		wakeCh: make(chan struct{}, 1),
	}
	w.robbedFrom.Store(-1)
	return w
}

// nextRand advances the worker's xorshift64* PRNG. It replaces a per-worker
// rand.Rand (≈5 KB of heap state and a method call per probe) with three
// shifts in registers; statistical quality is far beyond what victim
// selection needs.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x * 0x2545F4914F6CDD1D
}

// loop is Algorithm 1 on a live goroutine: pop the own pool, steal
// otherwise, and under DWS/DWS-NC sleep after T_SLEEP consecutive failed
// steals (releasing the core slot). A worker launched asleep first waits
// for its wake token: re-reading the state here instead would race a
// wake that already flipped it active, leaving that token to cut the
// worker's next park short without a matching ObsWake.
func (w *worker) loop(asleep bool) {
	p := w.p
	defer p.wg.Done()

	if asleep {
		w.block()
		if p.shutdown.Load() {
			return
		}
	}

	cfg := &p.sys.cfg
	sleeper := cfg.Policy == DWS || cfg.Policy == DWSNC
	for {
		if p.shutdown.Load() {
			return
		}
		// Eviction check (DWS): an active worker whose slot is no longer
		// occupied by its program stops and sleeps without releasing.
		if cfg.Policy == DWS && p.sys.table.Occupant(w.id) != p.id {
			p.sys.table.AckEviction(w.id)
			w.st.evictions.Add(1)
			p.emit(ObsEvent{Kind: ObsEvict, Core: w.id})
			w.park(false)
			continue
		}

		if t := w.deque.Pop(); t != nil {
			w.failedSteals = 0
			w.execute(t)
			continue
		}
		if t := w.trySteal(); t != nil {
			w.failedSteals = 0
			w.st.steals.Add(1)
			w.execute(t)
			continue
		}
		w.failedSteals++
		w.st.failedSteals.Add(1)
		if sleeper && w.failedSteals > cfg.TSleep {
			if w.park(true) {
				continue
			}
		}
		// The ABP yield (and the backoff between failed attempts).
		runtime.Gosched()
	}
}

// remoteStealBackoff is how many scans stay same-socket only after a
// full two-phase scan (locals and remotes) finds nothing. Small and
// constant so the extra sleep latency it can add before the T_SLEEP
// drought fires stays bounded.
const remoteStealBackoff = 2

// stealOrder fills w.scan with this attempt's probe order and returns
// its length: phase 1 is the same-socket victims rotated by a random
// offset, phase 2 (when includeRemote) the remote victims — starting at
// the robbing socket's segment if this worker was recently robbed
// across a socket boundary (steal-back), at a random remote otherwise.
// Each victim appears exactly once per phase it belongs to; under a
// flat topology every victim is phase 1 and the order is exactly the
// old single-phase random rotation.
func (w *worker) stealOrder(includeRemote bool) int {
	vs := w.victims
	nl := w.nLocal
	k := 0
	if nl > 0 {
		off := int((w.nextRand() >> 32) * uint64(nl) >> 32)
		for i := 0; i < nl; i++ {
			w.scan[k] = vs[off]
			k++
			if off++; off == nl {
				off = 0
			}
		}
	}
	nr := len(vs) - nl
	if !includeRemote || nr == 0 {
		return k
	}
	start := -1
	if rf := w.robbedFrom.Load(); rf >= 0 {
		w.robbedFrom.Store(-1)
		if int(rf) < len(w.sockOff) {
			if so := w.sockOff[rf]; so >= 0 {
				start = so - nl
			}
		}
	}
	if start < 0 {
		start = int((w.nextRand() >> 32) * uint64(nr) >> 32)
	}
	off := start
	for i := 0; i < nr; i++ {
		w.scan[k] = vs[nl+off]
		k++
		if off++; off == nr {
			off = 0
		}
	}
	return k
}

// trySteal probes the victims in stealOrder — same socket first, then
// remote sockets unless the bounded backoff is skipping them — and
// falls back to the program's injection queue. A scan without success
// counts as one failed steal attempt toward T_SLEEP. The probe loop
// walks the preallocated scan buffer (no per-attempt slice derivation)
// and a successful steal is classified local/remote by its phase; a
// remote steal leaves the thief's socket id with the victim to arm the
// steal-back bias.
func (w *worker) trySteal() *taskNode {
	full := w.remoteSkip == 0
	if !full {
		w.remoteSkip--
	}
	n := w.stealOrder(full)
	nl := w.nLocal
	for i := 0; i < n; i++ {
		v := w.scan[i]
		if t := v.deque.Steal(); t != nil {
			if i < nl {
				w.st.localSteals.Add(1)
			} else {
				w.st.remoteSteals.Add(1)
				v.robbedFrom.Store(int32(w.socket))
			}
			return t
		}
	}
	if full && n > nl {
		w.remoteSkip = remoteStealBackoff
	}
	return w.p.inject.Steal()
}

// park puts the worker to sleep. release=true is the voluntary sleep of
// Algorithm 1 (the slot is released in the table); eviction sleeps pass
// false. It returns false if the worker is the program's last active
// worker during a run and must keep stealing (liveness; DESIGN.md §5).
func (w *worker) park(release bool) bool {
	p := w.p
	if p.shutdown.Load() {
		return false
	}
	if n := p.active.Add(-1); n == 0 && p.runActive.Load() {
		p.active.Add(1)
		w.failedSteals = 0 // fresh drought window before the next attempt
		return false
	}
	// Emit before the state store: any ObsWake for this worker is only
	// possible after the store (wake CASes sleeping→active), so the
	// observer sees this sleep strictly before the matching wake.
	p.emit(ObsEvent{Kind: ObsSleep, Core: w.id, Release: release})
	w.state.Store(stateSleeping)
	if release && p.sys.cfg.Policy == DWS {
		if p.sys.table.Release(w.id, p.id) {
			p.emit(ObsEvent{Kind: ObsRelease, Core: w.id})
		}
	}
	w.st.sleeps.Add(1)
	w.block()
	return true
}

// block waits for a wake token (sent by Program.wake, which has already
// flipped the state back to active and re-counted the worker).
func (w *worker) block() {
	<-w.wakeCh
	w.failedSteals = 0
}
