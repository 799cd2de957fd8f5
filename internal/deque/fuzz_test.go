package deque

import (
	"bytes"
	"testing"
)

// FuzzDequeOps is the differential harness: the Chase–Lev deque replays a
// single-threaded operation sequence in lockstep with a fresh Locked
// reference and must match it op for op — same presence, same pointer,
// same Len — and then drain to the same contents. Any duplicate or lost
// element shows up as a mismatch.
func FuzzDequeOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 1})
	f.Add(bytes.Repeat([]byte{0}, 100))
	f.Add([]byte{2, 2, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 1}) // force ring growth, then drain both ends
	f.Add([]byte{0, 2, 2, 0, 2, 1, 0, 1, 2})                // single-element takes from both ends
	f.Fuzz(runDifferential)
}

// runDifferential replays ops (op%3: 0=Push, 1=Pop, 2=Steal) through the
// Chase–Lev deque and the Locked reference in lockstep.
func runDifferential(t *testing.T, ops []byte) {
	d := New[int](4)
	ref := NewLocked[int](4)
	vals := make([]int, len(ops)) // stable addresses: both sides push &vals[i]
	pushes := 0
	for i, op := range ops {
		switch op % 3 {
		case 0:
			vals[pushes] = pushes
			d.Push(&vals[pushes])
			ref.Push(&vals[pushes])
			pushes++
		case 1:
			if a, b := d.Pop(), ref.Pop(); a != b {
				t.Fatalf("op %d: Pop = %v, reference = %v", i, fmtVal(a), fmtVal(b))
			}
		case 2:
			if a, b := d.Steal(), ref.Steal(); a != b {
				t.Fatalf("op %d: Steal = %v, reference = %v", i, fmtVal(a), fmtVal(b))
			}
		}
		if dl, rl := d.Len(), ref.Len(); dl != rl {
			t.Fatalf("op %d: Len %d != reference %d", i, dl, rl)
		}
	}
	for {
		a, b := d.Pop(), ref.Pop()
		if a != b {
			t.Fatalf("drain: Pop = %v, reference = %v", fmtVal(a), fmtVal(b))
		}
		if a == nil {
			return
		}
	}
}

func fmtVal(v *int) any {
	if v == nil {
		return "nil"
	}
	return *v
}
