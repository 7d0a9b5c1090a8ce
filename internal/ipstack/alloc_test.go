package ipstack

import (
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// rxFrame builds a wire-format Ethernet+IPv4+UDP frame addressed to dstMAC.
func rxFrame(t *testing.T, dstMAC netaddr.MAC, src, dst netaddr.IPv4, payload []byte) []byte {
	t.Helper()
	dg := udp.Datagram{SrcPort: 5555, DstPort: 7777, Payload: payload}
	ip := ipv4.Packet{
		Header:  ipv4.Header{TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoUDP, Src: src, Dst: dst},
		Payload: dg.Marshal(src, dst),
	}
	f := ethernet.Frame{Dst: dstMAC, Src: netaddr.MAC{0xaa, 0, 0, 0, 0, 1}, EtherType: ethernet.TypeIPv4, Payload: ip.Marshal()}
	return f.Marshal()
}

// TestHandleFrameRxAllocs pins the local-delivery RX budget: Ethernet, IPv4
// and UDP parsing all alias the received frame, so handing a datagram to a
// listener allocates nothing. A defensive copy anywhere in the demux chain
// shows up here as a fraction of an allocation per op.
func TestHandleFrameRxAllocs(t *testing.T) {
	l := newLAN(t)
	var delivered int
	l.h2.ListenUDP(7777, func(src, dst netaddr.IPv4, dg udp.Datagram) { delivered++ })
	frame := rxFrame(t, l.h2.Node.Port(1).MAC, l.sub2.Host(9), l.sub2.Host(1), []byte("ka"))
	port := l.h2.Node.Port(1)
	avg := testing.AllocsPerRun(200, func() {
		l.h2.HandleFrame(port, frame)
	})
	if delivered == 0 {
		t.Fatal("test frame never reached the UDP listener")
	}
	if avg > 0 {
		t.Errorf("RX local delivery allocates %.1f/op, want 0 (parsers alias the frame)", avg)
	}
}

// TestHandleFrameForwardAllocs pins the router forwarding RX budget at
// zero: the outbound copy is drawn from the frame pool, the receiving host
// returns it after UDP delivery, and transmit-side event bookkeeping
// amortizes to zero once the simulator freelists warm up.
func TestHandleFrameForwardAllocs(t *testing.T) {
	l := newLAN(t)
	// Sink the probe datagrams so h2 consumes them instead of answering
	// port-unreachable inside the timed loop.
	l.h2.ListenUDP(7777, func(src, dst netaddr.IPv4, dg udp.Datagram) {})
	// Prime ARP on the router's h2-side interface so transmit takes the
	// fast path, then drain the warm-up traffic.
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte("prime"))
	l.sim.RunFor(10 * time.Millisecond)
	frame := rxFrame(t, l.r.Node.Port(1).MAC, l.sub1.Host(1), l.sub2.Host(1), []byte("fw"))
	port := l.r.Node.Port(1)
	forwarded := l.r.Stats.IPForwarded
	avg := testing.AllocsPerRun(200, func() {
		l.r.HandleFrame(port, frame)
		// Drain the delivery events so the sim's event freelist recycles
		// instead of growing with the queue.
		for l.sim.Step() {
		}
	})
	if l.r.Stats.IPForwarded == forwarded {
		t.Fatal("test frame was never forwarded")
	}
	if avg > 0 {
		t.Errorf("RX forward allocates %.1f/op, want 0 (pooled copy, recycled on delivery)", avg)
	}
}

// TestLocalDeliveryReturnsFrame pins the closed RX lifecycle: a frame
// delivered to a UDP listener goes back to the pool when the handler
// returns (the payload is only borrowed), and so do a TCP-delivered frame
// and a frame dropped as not addressed to this host. ICMP delivery keeps
// its buffer, because ICMP listeners may retain the message body.
func TestLocalDeliveryReturnsFrame(t *testing.T) {
	l := newLAN(t)
	pool := l.sim.Frames()
	port := l.h2.Node.Port(1)
	var delivered int
	l.h2.ListenUDP(7777, func(src, dst netaddr.IPv4, dg udp.Datagram) { delivered++ })
	// pooled copies a wire frame into a buffer lent by the pool, as a
	// transmitter's frame arrives.
	pooled := func(wire []byte) []byte {
		b := pool.Get(len(wire))
		copy(b, wire)
		return b
	}
	cases := []struct {
		name     string
		frame    []byte
		returned uint64
	}{
		{"udp-delivered", rxFrame(t, port.MAC, l.sub2.Host(9), l.sub2.Host(1), make([]byte, 100)), 1},
		{"tcp-delivered", tcpFrame(t, port.MAC, l.sub2.Host(9), l.sub2.Host(1)), 1},
		{"not-for-us", rxFrame(t, netaddr.MAC{0x02, 9, 9, 9, 9, 9}, l.sub2.Host(9), l.sub2.Host(1), make([]byte, 100)), 1},
		{"icmp-kept", icmpFrame(t, port.MAC, l.sub2.Host(9), l.sub2.Host(1)), 0},
	}
	for _, c := range cases {
		before := pool.Stats()
		l.h2.HandleFrame(port, pooled(c.frame))
		after := pool.Stats()
		if got := after.Returned - before.Returned; got != c.returned {
			t.Errorf("%s: %d frames returned to the pool, want %d", c.name, got, c.returned)
		}
		if got := after.InUse - before.InUse; got != 1-int(c.returned) {
			t.Errorf("%s: InUse moved by %d, want %d", c.name, got, 1-int(c.returned))
		}
	}
	if delivered != 1 {
		t.Errorf("UDP listener saw %d datagrams, want 1", delivered)
	}
}

// tcpFrame builds a wire-format Ethernet+IPv4 frame carrying a TCP RST
// addressed to dstMAC: the endpoint consumes it without answering, so the
// pool sees only the delivered frame.
func tcpFrame(t *testing.T, dstMAC netaddr.MAC, src, dst netaddr.IPv4) []byte {
	t.Helper()
	seg := tcp.Segment{SrcPort: 179, DstPort: 50000, Flags: tcp.FlagRST}
	ip := ipv4.Packet{
		Header:  ipv4.Header{TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoTCP, Src: src, Dst: dst},
		Payload: seg.Marshal(src, dst),
	}
	f := ethernet.Frame{Dst: dstMAC, Src: netaddr.MAC{0xaa, 0, 0, 0, 0, 1}, EtherType: ethernet.TypeIPv4, Payload: ip.Marshal()}
	return f.Marshal()
}

// icmpFrame builds a wire-format Ethernet+IPv4 frame carrying an ICMP
// time-exceeded message addressed to dstMAC.
func icmpFrame(t *testing.T, dstMAC netaddr.MAC, src, dst netaddr.IPv4) []byte {
	t.Helper()
	m := icmp.TimeExceeded(make([]byte, ipv4.HeaderLen+8))
	ip := ipv4.Packet{
		Header:  ipv4.Header{TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoICMP, Src: src, Dst: dst},
		Payload: m.Marshal(),
	}
	f := ethernet.Frame{Dst: dstMAC, Src: netaddr.MAC{0xaa, 0, 0, 0, 0, 1}, EtherType: ethernet.TypeIPv4, Payload: ip.Marshal()}
	return f.Marshal()
}
