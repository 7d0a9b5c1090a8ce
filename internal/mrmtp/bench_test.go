package mrmtp

import (
	"testing"
	"time"

	"repro/internal/flowhash"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

func simNew() *simnet.Sim { return simnet.New(17) }

const benchWarm = 2 * time.Second

func BenchmarkMessageMarshalUpdate(b *testing.B) {
	m := Message{Type: TypeUpdate, Sub: UpdateLost, Roots: []byte{11, 12}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = m.Marshal()
	}
}

func BenchmarkMessageParseAdvertise(b *testing.B) {
	m := Message{Type: TypeAdvertise, Tier: 2, VIDs: []VID{{11, 1}, {12, 1}}}
	wire := mustWire(b, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseMessage(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardDataDown(b *testing.B) {
	// The spine data-plane hot path: VID-table hit, forward toward root.
	bc := newBenchColumn(b)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(12).Host(1), Dst: rack(11).Host(1)}}
	wire := ip.Marshal()
	payload := MarshalData(12, 11, DataTTL, wire)
	key := flowhash.FromIPPacket(wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.spine.forwardData(payload, 11, key)
	}
}

func BenchmarkForwardDataUpHash(b *testing.B) {
	// The ToR data-plane hot path: no table entry, hashed uplink pick.
	bc := newBenchColumn(b)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(11).Host(1), Dst: rack(12).Host(1)}}
	wire := ip.Marshal()
	payload := MarshalData(11, 12, DataTTL, wire)
	key := flowhash.FromIPPacket(wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.tor.forwardData(payload, 12, key)
	}
}

// TestForwardDataAllocs pins the fabric data plane's allocation budget:
// forwarding an encapsulated packet may allocate the outbound frame buffer
// and scheduling bookkeeping, but never a copy of the payload. A per-hop
// copy shows up here as one extra allocation per op.
func TestForwardDataAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(12).Host(1), Dst: rack(11).Host(1)}}
	wire := ip.Marshal()
	payload := MarshalData(12, 11, DataTTL, wire)
	key := flowhash.FromIPPacket(wire)
	avg := testing.AllocsPerRun(200, func() {
		bc.spine.forwardData(payload, 11, key)
	})
	if avg > 3 {
		t.Errorf("forwardData allocates %.1f/op, want <= 3 (frame buffer + event bookkeeping)", avg)
	}
}

// TestIngressIPAllocs pins the ToR ingress budget: encapsulation decrements
// the TTL in the received packet in place instead of copying it first, so
// the path costs the test's own packet, the encapsulation buffer, the
// outbound frame, and event bookkeeping.
func TestIngressIPAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(11).Host(1), Dst: rack(12).Host(1)}}
	avg := testing.AllocsPerRun(200, func() {
		// Marshal inside the loop (counted): ingressIP consumes the buffer
		// by design, mutating the TTL of the frame it was handed.
		bc.tor.ingressIP(ip.Marshal())
	})
	if avg > 5 {
		t.Errorf("ingressIP allocates %.1f/op, want <= 5 (no defensive packet copy)", avg)
	}
}

func BenchmarkVIDKey(b *testing.B) {
	v := VID{11, 1, 2, 3}
	for i := 0; i < b.N; i++ {
		_ = v.Key()
	}
}

// newBenchColumn reuses the test fabric for benchmarks and alloc tests.
func newBenchColumn(b testing.TB) *column {
	b.Helper()
	// The column helper takes *testing.T; rebuild inline.
	c := &column{sim: simNew()}
	torN := c.sim.AddNode("tor")
	tor2N := c.sim.AddNode("tor2")
	spineN := c.sim.AddNode("spine")
	topN := c.sim.AddNode("top")
	c.server = c.sim.AddNode("server")
	c.sim.Connect(torN.AddPort(), spineN.AddPort())
	c.sim.Connect(tor2N.AddPort(), spineN.AddPort())
	c.sim.Connect(spineN.AddPort(), topN.AddPort())
	c.sim.Connect(torN.AddPort(), c.server.AddPort())
	torCfg := DefaultConfig(1, 3)
	torCfg.ServerPort = 2
	torCfg.RackSubnet = rack(11)
	c.tor = New(torN, torCfg, nil)
	tor2Cfg := DefaultConfig(1, 3)
	tor2Cfg.ServerPort = 2
	tor2Cfg.RackSubnet = rack(12)
	c.tor2 = New(tor2N, tor2Cfg, nil)
	c.spine = New(spineN, DefaultConfig(2, 3), nil)
	c.top = New(topN, DefaultConfig(3, 3), nil)
	c.sim.Start()
	c.sim.RunFor(benchWarm)
	return c
}

// TestHelloKeepAliveAllocs pins the MR-MTP keep-alive budget at zero: the
// paper's 1-byte raw-Ethernet hello (15 bytes at L2, Fig. 9) is composed
// in a pooled buffer, the receiving router returns the control frame to
// the pool once parsed, and event bookkeeping amortizes to zero once the
// simulator freelists warm up.
func TestHelloKeepAliveAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	adj := bc.tor.adjs[1] // fabric uplink toward the spine
	if adj == nil || adj.state != adjUp {
		t.Fatal("uplink adjacency not up after warm-up")
	}
	hello := []byte{TypeHello}
	avg := testing.AllocsPerRun(200, func() {
		bc.tor.sendOn(adj, hello)
		// Run past the link latency so the delivery fires and its event
		// record recycles instead of queueing. (A full drain would never
		// return: the hello timers re-arm forever.)
		bc.sim.RunFor(300 * time.Microsecond)
	})
	if avg > 0 {
		t.Errorf("hello keep-alive allocates %.1f/op, want 0 (pooled frame, recycled on receipt)", avg)
	}
}

// frameSink is a rack server that consumes every frame it receives and
// returns the buffer to the simulation's pool, as a real stack does with a
// UDP-delivered frame.
type frameSink struct {
	sim      *simnet.Sim
	received int
}

func (s *frameSink) Start()                  {}
func (s *frameSink) PortDown(p *simnet.Port) {}
func (s *frameSink) PortUp(p *simnet.Port)   {}
func (s *frameSink) HandleFrame(p *simnet.Port, frame []byte) {
	s.received++
	s.sim.Frames().Put(frame)
}

// TestDeliverToRackAllocs pins the ToR's rack egress at zero allocations
// once the frame pool is warm: the server-facing frame is composed in a
// pooled buffer (not ethernet.Frame.Marshal), and the sink hands it back
// after delivery, so steady state recycles one buffer per packet.
func TestDeliverToRackAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	sink := &frameSink{sim: bc.sim}
	bc.server.Handler = sink
	dst := rack(11).Host(1)
	bc.tor.arpCache[dst] = arpEntry{mac: netaddr.MAC{0x02, 0, 0, 0, 0, 1}, port: 2}
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(12).Host(1), Dst: dst}, Payload: make([]byte, 1008)}
	wire := ip.Marshal()
	avg := testing.AllocsPerRun(200, func() {
		bc.tor.deliverToRack(wire, dst)
		// Run past the link latency so the frame reaches the sink and
		// returns to the pool before the next iteration draws from it.
		bc.sim.RunFor(300 * time.Microsecond)
	})
	if sink.received == 0 {
		t.Fatal("no frame reached the rack server")
	}
	if avg > 0 {
		t.Errorf("deliverToRack allocates %.1f/op, want 0 (pooled rack frame)", avg)
	}
}
