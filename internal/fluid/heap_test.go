package fluid

import (
	"math/rand"
	"slices"
	"testing"
)

// The member heap pops in (threshold, seq) order whatever the push order,
// across sizes that exercise every partial last level of a 4-ary tree and
// with thresholds drawn from a small set so ties are common.
func TestMemberHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 70; n++ {
		var h []member
		var want []member
		for i := 0; i < n; i++ {
			m := member{threshold: float64(rng.Intn(8)), id: uint32(i), seq: uint32(rng.Int31())}
			h = append(h, m)
			siftUp(h, len(h)-1)
			want = append(want, m)
			// Interleave pops with pushes, as Advance and
			// resolvePending do across epochs.
			if rng.Intn(4) == 0 {
				slices.SortFunc(want, func(a, b member) int {
					if memberLess(a, b) {
						return -1
					}
					return 1
				})
				if h[0] != want[0] {
					t.Fatalf("n=%d: min %+v, want %+v", n, h[0], want[0])
				}
				popMin(&h)
				want = want[1:]
			}
		}
		slices.SortFunc(want, func(a, b member) int {
			if memberLess(a, b) {
				return -1
			}
			return 1
		})
		for i, w := range want {
			if h[0] != w {
				t.Fatalf("n=%d pop %d: %+v, want %+v", n, i, h[0], w)
			}
			popMin(&h)
		}
		if len(h) != 0 {
			t.Fatalf("n=%d: %d members left after draining", n, len(h))
		}
	}
}

// TestAdmitExistingGroupAllocs pins admission into an existing path group
// at zero allocations: the group lookup indexes the map with the scratch
// key bytes and only a new group copies them into a string.
func TestAdmitExistingGroupAllocs(t *testing.T) {
	s := New(Config{RateCapBps: 66e6})
	a, b := s.AddLink(200_000_000, nil), s.AddLink(200_000_000, nil)
	path := []LinkID{a, b}
	id := uint32(0)
	admit := func() {
		id++
		s.Admit(id, 100_000, path, 0, 0)
	}
	// Create the group and grow the pending list past the measured run;
	// Reallocate empties the list but keeps its capacity.
	for i := 0; i < 512; i++ {
		admit()
	}
	s.Reallocate(0)
	if avg := testing.AllocsPerRun(200, admit); avg > 0 {
		t.Errorf("Admit into an existing group allocates %.1f/op, want 0", avg)
	}
	if s.Groups() != 1 {
		t.Errorf("%d groups, want 1", s.Groups())
	}
}
