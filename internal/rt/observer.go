package rt

// ObsKind classifies a runtime scheduling transition reported to an
// Observer.
type ObsKind int

// Observer event kinds, mirroring the DWS protocol vocabulary (§3.1–§3.3).
const (
	// ObsSleep: a worker went to sleep. Release says whether it was the
	// voluntary T_SLEEP sleep (core slot released) or an eviction sleep.
	ObsSleep ObsKind = iota
	// ObsWake: a sleeping worker was transitioned to active.
	ObsWake
	// ObsClaim: the program claimed a free core in the allocation table.
	ObsClaim
	// ObsReclaim: the program reclaimed a home core from Victim. Epoch is
	// the entitlement epoch the reclaimer's home block derived from (0
	// before any arbitration), so an observer that has not yet seen that
	// batch's ObsEntitle rows can defer judging the reclaim instead of
	// misjudging it against a stale vector — the arbiter publishes to the
	// table before its decision rows reach the observer, so a coordinator
	// acting on the fresh vector can legitimately emit first.
	ObsReclaim
	// ObsEvict: a worker observed that its core was reclaimed and stopped.
	ObsEvict
	// ObsRelease: the program released a core slot in the table.
	ObsRelease
	// ObsCoordTick: one coordinator pass; carries the full §3.3
	// observation (NB, NA, NW, NF, NR) and what the pass actually did
	// (Woken, Claimed, Reclaimed).
	ObsCoordTick
	// ObsJoin: the program (re)joined the table lease; Epoch is the new
	// generation and Home the block it launched on.
	ObsJoin
	// ObsSweep: a sweep found Victim's lease expired; Cores slots were
	// freed. Prog is the sweeping program (0 for the system sweeper).
	ObsSweep
	// ObsRunStart / ObsRunDone bracket one Program.Run. ObsRunDone carries
	// the cumulative Spawned/Executed task counters, equal at every run
	// boundary if no task was lost.
	ObsRunStart
	ObsRunDone
	// ObsEntitle: the arbiter published a new entitlement for Prog —
	// EOld→ENew cores. One event per program row of the batch (Batch rows
	// total, shrinks emitted before growths); Epoch is the entitlement
	// epoch the batch published.
	ObsEntitle
)

// String names the kind.
func (k ObsKind) String() string {
	switch k {
	case ObsSleep:
		return "sleep"
	case ObsWake:
		return "wake"
	case ObsClaim:
		return "claim"
	case ObsReclaim:
		return "reclaim"
	case ObsEvict:
		return "evict"
	case ObsRelease:
		return "release"
	case ObsCoordTick:
		return "coord-tick"
	case ObsJoin:
		return "join"
	case ObsSweep:
		return "sweep"
	case ObsRunStart:
		return "run-start"
	case ObsRunDone:
		return "run-done"
	case ObsEntitle:
		return "entitle"
	default:
		return "other"
	}
}

// ObsEvent is one typed scheduling transition. Only the fields relevant to
// Kind are set; Core is -1 when no single core is involved.
type ObsEvent struct {
	Kind ObsKind `json:"kind"`
	// Prog is the acting program's 1-based table ID (0 = the system).
	Prog int32 `json:"prog"`
	// Core is the core/worker slot involved, -1 if not applicable.
	Core int `json:"core"`
	// Victim is the displaced program: the borrower on ObsReclaim, the
	// dead program on ObsSweep.
	Victim int32 `json:"victim,omitempty"`
	// Release distinguishes a voluntary sleep (true) from an eviction
	// sleep on ObsSleep events.
	Release bool `json:"release,omitempty"`
	// Epoch is the lease generation on ObsJoin/ObsSweep, the entitlement
	// epoch on ObsEntitle, and the entitlement-epoch basis of the home
	// block on ObsReclaim.
	Epoch int64 `json:"epoch,omitempty"`

	// Coordinator observation (ObsCoordTick): NB queued tasks, NA active
	// workers, NW = NB/NA wake target, NF free cores whose affined worker
	// is sleeping, NR home cores held by a borrower whose affined worker
	// is sleeping.
	NB int `json:"nb,omitempty"`
	NA int `json:"na,omitempty"`
	NW int `json:"nw,omitempty"`
	NF int `json:"nf,omitempty"`
	NR int `json:"nr,omitempty"`
	// Coordinator actions (ObsCoordTick): workers woken, free cores
	// claimed, home cores reclaimed by this pass.
	Woken     int `json:"woken,omitempty"`
	Claimed   int `json:"claimed,omitempty"`
	Reclaimed int `json:"reclaimed,omitempty"`

	// Arbiter decision row (ObsEntitle): Prog's entitlement moved EOld→ENew
	// under the batch's Trigger; Weight/Score/Floor/Demand/Activity/Active
	// are the arbitration inputs the decision was computed from (Score is 0
	// while the program is classified idle), and Batch is the number of
	// rows in this publish. Epoch carries the entitlement epoch.
	EOld     int     `json:"eold,omitempty"`
	ENew     int     `json:"enew,omitempty"`
	Floor    int     `json:"floor,omitempty"`
	Batch    int     `json:"batch,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	Score    float64 `json:"score,omitempty"`
	Demand   float64 `json:"demand,omitempty"`
	Activity float64 `json:"activity,omitempty"`
	Active   bool    `json:"active,omitempty"`
	Trigger  string  `json:"trigger,omitempty"`

	// Cores is the number of slots freed by an ObsSweep.
	Cores int `json:"cores,omitempty"`
	// Home is the block an ObsJoin launched on: the static even split, or
	// the entitled block when an arbiter has published one. Workers
	// outside it start asleep without an ObsSleep.
	Home []int `json:"home,omitempty"`
	// Spawned/Executed are the program's cumulative task counters on
	// ObsRunDone (root injections count as spawns).
	Spawned  int64 `json:"spawned,omitempty"`
	Executed int64 `json:"executed,omitempty"`
	// LocalSteals/RemoteSteals split the program's cumulative deque steals
	// by whether thief and victim shared a socket (ObsRunDone). Under a
	// flat topology RemoteSteals is always 0.
	LocalSteals  int64 `json:"local_steals,omitempty"`
	RemoteSteals int64 `json:"remote_steals,omitempty"`
}

// Observer receives every scheduling transition of a System's programs.
// It is called synchronously from worker and coordinator goroutines —
// implementations must be fast, concurrency-safe, and must not call back
// into the runtime. The invariant checker in internal/schedcheck is the
// canonical implementation.
type Observer func(ObsEvent)
