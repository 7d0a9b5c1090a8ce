package workload

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/fluid"
)

// TestSendDataAllocs pins the packet workload's per-packet budget at zero
// in steady state: the payload scratch buffer is reused across packets,
// SendUDP composes the frame in a pooled buffer, the router's forwarding
// copy is pooled, and the receiving host returns the UDP-delivered frame
// to the pool when onDatagram returns.
func TestSendDataAllocs(t *testing.T) {
	w := newRig(t, 1)
	cfg := smallConfig(1)
	cfg.Flows = 1
	cfg.Sizes = FixedSize(1000 * cfg.PacketSize)
	e, err := New(nil, w.hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := e.Flows()[0]
	f.gotMask = make([]uint64, (f.Packets+63)/64)
	// The first packet resolves ARP along the path and warms the pool.
	e.sendData(f, 0)
	w.sim.RunFor(10 * time.Millisecond)
	seq := uint32(1)
	avg := testing.AllocsPerRun(200, func() {
		e.sendData(f, seq)
		seq++
		// Run past both hops so the frame is delivered and recycled
		// before the next packet draws from the pool.
		w.sim.RunFor(time.Millisecond)
	})
	if f.received < 200 {
		t.Fatalf("receiver saw %d packets, want >= 200", f.received)
	}
	if avg > 0 {
		t.Errorf("sendData allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestNewScheduleAllocs pins the schedule's allocation count as flat in the
// flow count: Flow records come from one slab, and fluid flows stay out of
// the packet receive map, so 10⁴ fluid flows cost New no more allocations
// than 10³.
func TestNewScheduleAllocs(t *testing.T) {
	// A collection cycle started by the large slabs adds the odd runtime
	// allocation of its own; hold the collector off so only New counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := newRig(t, 1)
	allocs := func(flows int) float64 {
		cfg := smallConfig(1)
		cfg.Mode = ModeFluid
		cfg.Flows = flows
		cfg.Solver = fluid.New(fluid.Config{})
		cfg.PathOf = func(*Flow) ([]fluid.LinkID, time.Duration, bool) { return nil, 0, false }
		return testing.AllocsPerRun(5, func() {
			if _, err := New(nil, w.hosts, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small {
		t.Errorf("New allocates %.0f times for 10⁴ fluid flows but %.0f for 10³: per-flow allocations crept in", large, small)
	}
}
