package deque

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// engine is the owner/thief surface both work-stealing deques share.
type engine interface {
	Push(v *int)
	Pop() *int
	Steal() *int
	Len() int
}

// engines are the deques the concurrent battery holds to one contract:
// the lock-free Chase–Lev deque and its mutex reference.
var engines = []struct {
	name string
	make func(capacity int) engine
}{
	{"chaselev", func(c int) engine { return New[int](c) }},
	{"locked", func(c int) engine { return NewLocked[int](c) }},
}

// stressDeque drives one owner (Push/Pop per a seeded script) against
// `thieves` concurrent stealers and asserts the work-stealing contract:
//
//   - exactly-once: every pushed value is consumed by exactly one Pop or
//     Steal — nothing lost, nothing duplicated;
//   - per-thief monotonicity: steals take the FIFO end, so the values one
//     thief observes are strictly increasing;
//   - Len sanity: never negative, never more than the values pushed so far.
func stressDeque(t *testing.T, d engine, seed int64, thieves, pushes int) {
	t.Helper()
	vals := make([]int, pushes) // stable addresses for the *int payloads
	for i := range vals {
		vals[i] = i
	}

	var stop atomic.Bool
	stolen := make([][]int, thieves)
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if v := d.Steal(); v != nil {
					stolen[i] = append(stolen[i], *v)
					continue
				}
				if stop.Load() {
					return
				}
				runtime.Gosched()
			}
		}(i)
	}

	rng := rand.New(rand.NewSource(seed))
	var popped []int
	for i := 0; i < pushes; i++ {
		d.Push(&vals[i])
		if n := d.Len(); n < 0 || n > i+1 {
			t.Errorf("Len() = %d after %d pushes", n, i+1)
		}
		// Seeded owner schedule: occasional Pop bursts and yields give the
		// thieves every interleaving shape.
		switch rng.Intn(4) {
		case 0:
			if v := d.Pop(); v != nil {
				popped = append(popped, *v)
			}
		case 1:
			runtime.Gosched()
		}
	}
	// Drain what the thieves leave behind. A nil Pop with Len > 0 means an
	// in-flight steal still holds the last entry; it clears with retries.
	for {
		if v := d.Pop(); v != nil {
			popped = append(popped, *v)
			continue
		}
		if d.Len() <= 0 {
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	seen := make([]int, pushes) // consumption count per value
	for _, v := range popped {
		seen[v]++
	}
	for i, s := range stolen {
		prev := -1
		for _, v := range s {
			seen[v]++
			if v <= prev {
				t.Errorf("thief %d stole %d after %d: steals must take the FIFO end in order", i, v, prev)
			}
			prev = v
		}
	}
	lost, dup := 0, 0
	for _, n := range seen {
		switch {
		case n == 0:
			lost++
		case n > 1:
			dup += n - 1
		}
	}
	if lost > 0 || dup > 0 {
		t.Fatalf("exactly-once broken: %d values lost, %d duplicated deliveries (of %d pushed)", lost, dup, pushes)
	}
}

// TestEngineConcurrentStress is the seeded multi-thief battery over both
// deques, small enough to run under -race on every CI pass. The Locked
// rows hold the reference implementation to the identical contract: if an
// invariant ever fires on Chase–Lev but not here, the bug is in the
// deque, not the test.
func TestEngineConcurrentStress(t *testing.T) {
	for _, e := range engines {
		for _, thieves := range []int{1, 2, 4} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/thieves=%d/seed=%d", e.name, thieves, seed), func(t *testing.T) {
					stressDeque(t, e.make(4), seed, thieves, 2000)
				})
			}
		}
	}
}

// FuzzDequeConcurrent explores randomized concurrent schedules over both
// deques: the fuzzer picks the owner-script seed and the thief count, the
// invariants stay fixed. Complements FuzzDequeOps, which
// differentially fuzzes the single-threaded semantics against the Locked
// reference.
func FuzzDequeConcurrent(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(42), uint8(4))
	f.Add(int64(-7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, thieves uint8) {
		n := int(thieves)%4 + 1
		for _, e := range engines {
			stressDeque(t, e.make(4), seed, n, 500)
		}
	})
}
