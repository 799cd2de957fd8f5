package rt

// Free-lists for the per-task hot path. Every Spawn used to heap-allocate
// a taskNode and every execute a Ctx; at ~10⁴ tasks per run that made the
// Go allocator and GC the dominant "scheduling" cost the benchmarks saw.
// Instead, each worker keeps owner-local free-lists (no locks: getNode is
// only called by the spawning worker inside Spawn, putNode/getCtx/putCtx
// only by the executing worker inside execute, and both run on the
// worker's own goroutine). Recycling happens where a task *finishes*, so
// a stolen task's node migrates to the thief's list; a shared bounded
// overflow ring rebalances nodes when spawn-heavy and steal-heavy workers
// diverge, and anything beyond the ring is simply dropped to the GC.

const (
	// nodeFreeMax bounds a worker's local taskNode free-list. 256 nodes
	// cover the deque depth of every kernel in the catalog; the bound
	// keeps a pathological producer from hoarding memory.
	nodeFreeMax = 256
	// nodeOverflowCap sizes the per-program shared overflow ring.
	nodeOverflowCap = 1024
	// ctxFreeInit pre-sizes the Ctx free-list; it grows with the deepest
	// task nesting seen on the worker (execute is re-entrant via Sync).
	ctxFreeInit = 16
)

// taskPool is one worker's free-lists. Only the owning worker's goroutine
// touches it.
type taskPool struct {
	nodes []*taskNode
	ctxs  []*Ctx
}

func newTaskPool() taskPool {
	return taskPool{
		nodes: make([]*taskNode, 0, nodeFreeMax),
		ctxs:  make([]*Ctx, 0, ctxFreeInit),
	}
}

// getNode returns a recycled taskNode initialised to (fn, parent), taking
// the local free-list first, the shared overflow ring second, and the
// allocator last. Called by Spawn on the spawning worker's goroutine.
func (w *worker) getNode(fn Task, parent *frame) *taskNode {
	if n := len(w.pool.nodes); n > 0 {
		t := w.pool.nodes[n-1]
		w.pool.nodes = w.pool.nodes[:n-1]
		t.fn, t.parent = fn, parent
		return t
	}
	if t := w.p.nodeOverflow.TryPop(); t != nil {
		t.fn, t.parent = fn, parent
		return t
	}
	return &taskNode{fn: fn, parent: parent}
}

// putNode recycles a consumed taskNode onto the executing worker's
// free-list (or the shared ring when full). Safe to call before the
// task's function runs: execute copies fn/parent out first, and a node
// popped or stolen from the Chase–Lev deque has a single owner — losing
// CAS thieves never dereference the pointer they loaded.
func (w *worker) putNode(t *taskNode) {
	t.fn, t.parent = nil, nil // release the closure for the GC
	if len(w.pool.nodes) < nodeFreeMax {
		w.pool.nodes = append(w.pool.nodes, t)
		return
	}
	w.p.nodeOverflow.TryPush(t) // ring full: drop t to the GC
}

// getCtx returns a recycled Ctx bound to this worker. A pooled Ctx is
// never shared across workers (its w field is fixed), so the list is
// strictly owner-local. The embedded frame needs no reset: Sync returned
// with pending == 0, and done is nil on every non-root frame forever.
func (w *worker) getCtx() *Ctx {
	if n := len(w.pool.ctxs); n > 0 {
		c := w.pool.ctxs[n-1]
		w.pool.ctxs = w.pool.ctxs[:n-1]
		return c
	}
	return &Ctx{w: w}
}

// putCtx recycles a dead Ctx (its task returned and its final Sync saw
// every child finish).
func (w *worker) putCtx(c *Ctx) {
	w.pool.ctxs = append(w.pool.ctxs, c)
}
