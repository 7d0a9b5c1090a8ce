package workload

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

func TestSizeDistBoundedAndMonotonic(t *testing.T) {
	for _, dist := range []SizeDist{WebSearchMix(), CacheMix()} {
		prev := 0
		for i := 0; i <= 1000; i++ {
			u := float64(i) / 1000
			b := dist.Sample(u)
			if b < prev {
				t.Fatalf("%s: Sample not monotonic at u=%.3f: %d < %d", dist.Name(), u, b, prev)
			}
			prev = b
		}
		if min := dist.Sample(0); min < 64 {
			t.Errorf("%s: Sample(0) = %d, implausibly small", dist.Name(), min)
		}
		if max := dist.Sample(0.9999999); max > 1_000_001 {
			t.Errorf("%s: Sample(~1) = %d, above the top anchor", dist.Name(), max)
		}
	}
	if got := FixedSize(5000).Sample(0.7); got != 5000 {
		t.Errorf("FixedSize sample = %d", got)
	}
}

func TestSizeDistHeavyTail(t *testing.T) {
	// The websearch mix must put the majority of bytes in the large
	// minority of flows — the property that makes hashing collisions
	// visible in byte imbalance.
	dist := WebSearchMix()
	rng := rand.New(rand.NewSource(7))
	var total, topDecile float64
	var sizes []float64
	for i := 0; i < 20000; i++ {
		sizes = append(sizes, float64(dist.Sample(rng.Float64())))
	}
	for _, s := range sizes {
		total += s
	}
	sorted := append([]float64(nil), sizes...)
	sort.Float64s(sorted)
	cut := sorted[len(sorted)*9/10]
	for _, s := range sizes {
		if s >= cut {
			topDecile += s
		}
	}
	if frac := topDecile / total; frac < 0.4 {
		t.Errorf("top-decile flows carry %.2f of bytes, want heavy tail (>0.4)", frac)
	}
}

// rig is a minimal two-rack testbed: two hosts joined by one router.
type rig struct {
	sim    *simnet.Sim
	hosts  []Host
	router *simnet.Node
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	sim := simnet.New(seed)
	a, r, b := sim.AddNode("h-a"), sim.AddNode("router"), sim.AddNode("h-b")
	sa, sr, sb := ipstack.New(a), ipstack.New(r), ipstack.New(b)
	sim.Connect(a.AddPort(), r.AddPort())
	sim.Connect(r.AddPort(), b.AddPort())
	s1 := netaddr.MakePrefix(netaddr.MakeIPv4(10, 1, 0, 0), 24)
	s2 := netaddr.MakePrefix(netaddr.MakeIPv4(10, 2, 0, 0), 24)
	i1 := sa.AddIface(a.Port(1), s1.Host(1), s1)
	sr.AddIface(r.Port(1), s1.Host(254), s1)
	sr.AddIface(r.Port(2), s2.Host(254), s2)
	i2 := sb.AddIface(b.Port(1), s2.Host(1), s2)
	sa.AddDefaultRoute(s1.Host(254), i1)
	sb.AddDefaultRoute(s2.Host(254), i2)
	return &rig{
		sim: sim,
		hosts: []Host{
			{Stack: sa, IP: s1.Host(1), Name: "h-a", Rack: "ra"},
			{Stack: sb, IP: s2.Host(1), Name: "h-b", Rack: "rb"},
		},
		router: r,
	}
}

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Flows = 12
	cfg.Sizes = FixedSize(4000)
	cfg.MeanArrival = 2 * time.Millisecond
	return cfg
}

func TestEngineCompletesAllFlows(t *testing.T) {
	w := newRig(t, 1)
	e, err := New(nil, w.hosts, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	w.sim.RunFor(2 * time.Second)
	if !e.Done() {
		t.Fatal("engine not done after 2s of virtual time")
	}
	r := e.Report(nil)
	if r.Completed != r.Flows || r.Abandoned != 0 || r.Incomplete != 0 {
		t.Fatalf("report %+v, want all %d complete", r, r.Flows)
	}
	if r.Retransmits != 0 {
		t.Errorf("lossless path needed %d retransmits", r.Retransmits)
	}
	if r.CompletionRate() != 1 {
		t.Errorf("completion rate = %v", r.CompletionRate())
	}
	// 4000B at 1000B packets = 4 packets per flow.
	if want := uint64(12 * 4); r.PacketsSent != want {
		t.Errorf("packets sent = %d, want %d", r.PacketsSent, want)
	}
	var fct int
	for _, b := range r.Buckets {
		fct += len(b.FCTms)
		for _, ms := range b.FCTms {
			if ms <= 0 {
				t.Errorf("bucket %s has non-positive FCT %v", b.Label, ms)
			}
		}
	}
	if fct != r.Completed {
		t.Errorf("bucketed FCT count %d != completed %d", fct, r.Completed)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() Report {
		w := newRig(t, 1)
		cfg := smallConfig(5)
		cfg.Sizes = WebSearchMix()
		e, err := New(nil, w.hosts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		w.sim.RunFor(5 * time.Second)
		return e.Report(nil)
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed, different reports:\n%+v\n%+v", r1, r2)
	}
}

func TestEngineRepairsAcrossOutage(t *testing.T) {
	// Black-hole the path while flows are in flight; the repair rounds
	// must finish every flow once the path heals, with the stall visible
	// in the FCT tail.
	w := newRig(t, 1)
	cfg := smallConfig(7)
	cfg.Flows = 6
	cfg.MeanArrival = 5 * time.Millisecond
	e, err := New(nil, w.hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	w.sim.RunFor(10 * time.Millisecond)
	w.router.Port(2).Fail()
	w.sim.RunFor(300 * time.Millisecond)
	w.router.Port(2).Restore()
	w.sim.RunFor(5 * time.Second)
	if !e.Done() {
		t.Fatal("flows not repaired after the outage healed")
	}
	r := e.Report(nil)
	if r.Completed != r.Flows {
		t.Fatalf("completed %d/%d", r.Completed, r.Flows)
	}
	if r.Retransmits == 0 {
		t.Error("outage produced no retransmits")
	}
	maxFCT := 0.0
	for _, b := range r.Buckets {
		for _, ms := range b.FCTms {
			if ms > maxFCT {
				maxFCT = ms
			}
		}
	}
	if maxFCT < 250 {
		t.Errorf("max FCT %.1fms does not reflect the ~300ms outage", maxFCT)
	}
}

func TestPatternPairing(t *testing.T) {
	hosts := []Host{
		{Name: "a1", Rack: "a"}, {Name: "a2", Rack: "a"},
		{Name: "b1", Rack: "b"}, {Name: "b2", Rack: "b"},
	}
	e := &Engine{hosts: hosts, cfg: Config{Pattern: PatternPermutation}}
	pair := e.pairer(rand.New(rand.NewSource(1)))
	for i := 0; i < 8; i++ {
		src, dst := pair(i)
		if hosts[src].Rack == hosts[dst].Rack {
			t.Errorf("permutation paired %s with %s (same rack)", hosts[src].Name, hosts[dst].Name)
		}
	}
	e.cfg.Pattern = PatternIncast
	pair = e.pairer(rand.New(rand.NewSource(1)))
	for i := 0; i < 8; i++ {
		src, dst := pair(i)
		if dst != 0 || src == 0 {
			t.Errorf("incast flow %d: src=%d dst=%d, want all into host 0", i, src, dst)
		}
	}
	e.cfg.Pattern = PatternRandom
	pair = e.pairer(rand.New(rand.NewSource(1)))
	for i := 0; i < 32; i++ {
		src, dst := pair(i)
		if src == dst || hosts[src].Rack == hosts[dst].Rack {
			t.Errorf("random pairing %d: %d->%d not cross-rack", i, src, dst)
		}
	}
}

func TestSamplerSeriesAndDrops(t *testing.T) {
	sim := simnet.New(1)
	a, b := sim.AddNode("a"), sim.AddNode("b")
	b.Handler = ipstack.New(b)
	a.Handler = ipstack.New(a)
	link := sim.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.SetBandwidth(8_000_000, 4) // 1 MB/s, 4-frame queue

	s := NewSampler(sim, 10*time.Millisecond)
	s.Watch(link)
	s.Start()

	// Offer 2x capacity for 100 ms: utilization should pin near 1 and the
	// queue must overflow. Send takes ownership of its buffer (frames that
	// tail-drop are recycled into the pool), so each call gets a fresh one.
	var offer func()
	n := 0
	offer = func() {
		a.Port(1).Send(make([]byte, 1000))
		a.Port(1).Send(make([]byte, 1000))
		if n++; n < 100 {
			sim.After(time.Millisecond, offer)
		}
	}
	offer()
	sim.RunFor(200 * time.Millisecond)
	s.Stop()

	if len(s.Series()) != 2 {
		t.Fatalf("series count = %d, want both directions", len(s.Series()))
	}
	fwd := s.Series()[0]
	if len(fwd.Samples) < 15 {
		t.Fatalf("only %d samples over 200ms at 10ms cadence", len(fwd.Samples))
	}
	// The first interval can exceed 1.0 by the queue growth it absorbed;
	// steady-state intervals must sit at the wire rate.
	if peak := s.PeakUtil(); peak < 0.9 || peak > 1.5 {
		t.Errorf("peak utilization %.2f, want ~1.0-1.4 on a saturated link", peak)
	}
	for i := 2; i < 9; i++ {
		if u := fwd.Samples[i].Util; u < 0.95 || u > 1.05 {
			t.Errorf("steady-state sample %d utilization %.2f, want ~1.0", i, u)
		}
	}
	if s.PeakQueue() == 0 {
		t.Error("saturated link never showed a queued frame")
	}
	if s.TotalDrops() == 0 {
		t.Error("2x overload never dropped at a 4-frame queue")
	}
	// Reverse direction is idle.
	rev := s.Series()[1]
	for _, smp := range rev.Samples {
		if smp.TxBytes != 0 || smp.Drops != 0 {
			t.Fatalf("idle direction recorded traffic: %+v", smp)
		}
	}
	// Frame-pool occupancy is sampled on the same ticks as the links.
	pool := s.PoolSeries()
	if len(pool) != len(fwd.Samples) {
		t.Fatalf("pool samples = %d, want %d (one per tick)", len(pool), len(fwd.Samples))
	}
	for i, ps := range pool {
		if ps.At != fwd.Samples[i].At {
			t.Fatalf("pool sample %d at %v, link sample at %v", i, ps.At, fwd.Samples[i].At)
		}
		if ps.Peak < ps.InUse {
			t.Fatalf("pool sample %d: peak %d below in-use %d", i, ps.Peak, ps.InUse)
		}
	}
	if last := pool[len(pool)-1]; last.Recycled == 0 {
		t.Error("a saturated link tail-dropping frames never returned a buffer to the pool")
	}
}

func TestSamplerSurfacesImpairmentCounters(t *testing.T) {
	// Lost/Corrupted from the link's impairment state must reach the
	// telemetry samples, per direction, so the workload CSV can show
	// where a gray failure sat.
	sim := simnet.New(3)
	a, b := sim.AddNode("a"), sim.AddNode("b")
	a.Handler, b.Handler = ipstack.New(a), ipstack.New(b)
	link := sim.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.Impair(a.Port(1), simnet.Impairment{LossRate: 0.5, CorruptRate: 0.5})

	s := NewSampler(sim, 10*time.Millisecond)
	s.Watch(link)
	s.Start()
	// Fresh buffer per Send: ownership passes to the simulator, and lost
	// frames are recycled into the pool.
	for i := 0; i < 50; i++ {
		sim.After(time.Duration(i)*time.Millisecond, func() { a.Port(1).Send(make([]byte, 100)) })
	}
	sim.RunFor(100 * time.Millisecond)
	s.Stop()

	fwd := s.Series()[0]
	last := fwd.Samples[len(fwd.Samples)-1]
	if last.Lost == 0 {
		t.Error("50% loss on 50 frames surfaced no Lost count")
	}
	if last.Corrupted == 0 {
		t.Error("50% corruption on 50 frames surfaced no Corrupted count")
	}
	rev := s.Series()[1]
	for _, smp := range rev.Samples {
		if smp.Lost != 0 || smp.Corrupted != 0 {
			t.Fatalf("clean reverse direction recorded impairments: %+v", smp)
		}
	}
}

func TestLoadMeterIndices(t *testing.T) {
	sim := simnet.New(1)
	a, b, c := sim.AddNode("a"), sim.AddNode("b"), sim.AddNode("c")
	b.Handler = ipstack.New(b)
	c.Handler = ipstack.New(c)
	sim.Connect(a.AddPort(), b.AddPort())
	sim.Connect(a.AddPort(), c.AddPort())
	g := Group{Name: "a-uplinks", Ports: []*simnet.Port{a.Port(1), a.Port(2)}}
	idle := Group{Name: "idle", Ports: []*simnet.Port{b.Port(1)}}
	m := NewLoadMeter(sim, []Group{g, idle})

	a.Port(1).Send(make([]byte, 3000))
	a.Port(2).Send(make([]byte, 1000))
	sim.RunFor(time.Millisecond)

	loads := m.Read()
	if got := loads[0].MaxOverMean; got != 1.5 {
		t.Errorf("max/mean = %v, want 1.5 (3000 vs mean 2000)", got)
	}
	// Jain for (3000,1000): 16e6/(2*10e6) = 0.8.
	if got := loads[0].Jain; got < 0.799 || got > 0.801 {
		t.Errorf("jain = %v, want 0.8", got)
	}
	if loads[1].MaxOverMean != 1 || loads[1].Jain != 1 {
		t.Errorf("idle group = %+v, want neutral indices", loads[1])
	}
	summary, jain := ImbalanceSummary(loads)
	if summary.N != 1 {
		t.Errorf("idle group included in summary: %+v", summary)
	}
	if jain < 0.799 || jain > 0.801 {
		t.Errorf("jain mean = %v", jain)
	}
}

// TestSamplerReserveKeepsSamples runs the same workload twice, once with
// the telemetry series presized from the engine's horizon, and checks that
// presizing changes capacity only: every link and pool sample is
// identical, the reserved run never regrows its series, and the horizon is
// a lower bound on the run (every flow finishes after it).
func TestSamplerReserveKeepsSamples(t *testing.T) {
	var reserved []int // capacity of each series right after Reserve
	run := func(reserve bool) (*Sampler, *Engine, time.Duration) {
		w := newRig(t, 1)
		e, err := New(nil, w.hosts, smallConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		s := NewSampler(w.sim, time.Millisecond)
		for _, l := range w.sim.Links() {
			s.Watch(l)
		}
		if reserve {
			s.Reserve(e.Horizon() + 50*time.Millisecond)
			for _, sr := range s.Series() {
				reserved = append(reserved, cap(sr.Samples))
			}
		}
		e.Start()
		s.Start()
		start := w.sim.Now()
		for !e.Done() {
			w.sim.RunFor(50 * time.Millisecond)
		}
		s.Stop()
		return s, e, start
	}
	plain, _, _ := run(false)
	sized, e, start := run(true)
	if !reflect.DeepEqual(plain.PoolSeries(), sized.PoolSeries()) {
		t.Error("Reserve changed the pool series")
	}
	want := int((e.Horizon() + 50*time.Millisecond) / time.Millisecond)
	for i, sr := range sized.Series() {
		if !reflect.DeepEqual(sr.Samples, plain.Series()[i].Samples) {
			t.Errorf("%s: Reserve changed the samples", sr.Name)
		}
		if reserved[i] < want {
			t.Errorf("%s: reserved capacity %d, want >= %d", sr.Name, reserved[i], want)
		}
		if cap(sr.Samples) != reserved[i] {
			t.Errorf("%s: %d samples regrew the series from %d to %d", sr.Name, len(sr.Samples), reserved[i], cap(sr.Samples))
		}
	}
	var last time.Duration
	for _, f := range e.Flows() {
		if end := f.launchedAt + f.FCT - start; end > last {
			last = end
		}
	}
	if last < e.Horizon() {
		t.Errorf("last flow finished %v after start, before the horizon %v", last, e.Horizon())
	}
}

// Done resumes from where it last found an unfinished flow, so it must
// not skip an early straggler when later flows finish first, and it must
// count abandoned flows as finished.
func TestDoneWaitsForEarlyStraggler(t *testing.T) {
	w := newRig(t, 1)
	cfg := smallConfig(1)
	cfg.Flows = 5
	e, err := New(nil, w.hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := e.Flows()
	if e.Done() {
		t.Fatal("Done before any flow finished")
	}
	for _, f := range fs[1:] {
		f.Done = true
	}
	if e.Done() {
		t.Fatal("Done with flow 1 still unfinished and only later flows finished")
	}
	fs[0].Done = true
	if !e.Done() {
		t.Fatal("not Done after every flow completed")
	}
}

func TestDoneCountsAbandonedFlows(t *testing.T) {
	w := newRig(t, 1)
	cfg := smallConfig(1)
	cfg.Flows = 6
	e, err := New(nil, w.hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := e.Flows()
	fs[0].Done = true
	fs[1].Abandoned = true
	fs[3].Done = true
	if e.Done() {
		t.Fatal("Done with flow 3 unfinished")
	}
	fs[2].Abandoned = true
	fs[4].Abandoned = true
	if e.Done() {
		t.Fatal("Done with flow 6 unfinished")
	}
	fs[5].Done = true
	if !e.Done() {
		t.Fatal("not Done after every flow completed or was abandoned")
	}
	if r := e.Report(nil); r.Completed != 3 || r.Abandoned != 3 || r.Incomplete != 0 {
		t.Errorf("report counts %d completed, %d abandoned, %d incomplete; want 3, 3, 0", r.Completed, r.Abandoned, r.Incomplete)
	}
}
