package mrmtp

import (
	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/flowhash"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// This file is MR-MTP's data plane (paper §III.D): ToRs encapsulate server
// IP packets behind a (src VID, dst VID) header and the fabric forwards by
// VID table — down toward a known root, or up by hashed default. The ToR is
// the only device that ever parses IP, and the rack side keeps ordinary
// IP/ARP semantics so servers need no changes (backward compatibility).

// GatewayIP returns the address the ToR answers ARP for on the rack side.
func (r *Router) GatewayIP() netaddr.IPv4 { return r.Cfg.RackSubnet.Host(254) }

// handleRackFrame processes server-side traffic at a ToR.
//
//simlint:hotpath
func (r *Router) handleRackFrame(p *simnet.Port, f ethernet.Frame) {
	switch f.EtherType {
	case ethernet.TypeARP:
		r.handleRackARP(p, f)
	case ethernet.TypeIPv4:
		r.ingressIP(f.Payload)
	}
}

func (r *Router) handleRackARP(p *simnet.Port, f ethernet.Frame) {
	pkt, err := arp.Unmarshal(f.Payload)
	if err != nil {
		return
	}
	// Learn the sender either way.
	r.arpCache[pkt.SenderIP] = arpEntry{mac: pkt.SenderMAC, port: p.Index}
	r.flushRackPending(pkt.SenderIP)
	if pkt.Op != arp.OpRequest {
		return
	}
	// Answer for the gateway, and proxy-answer for other rack addresses:
	// servers hang off separate ToR ports, so sibling traffic flows
	// through the ToR's L3 switching path (deliverToRack).
	answer := pkt.TargetIP == r.GatewayIP() ||
		(r.Cfg.RackSubnet.Contains(pkt.TargetIP) && pkt.TargetIP != pkt.SenderIP)
	if answer {
		reply := arp.Packet{
			Op:        arp.OpReply,
			SenderMAC: p.MAC, SenderIP: pkt.TargetIP,
			TargetMAC: pkt.SenderMAC, TargetIP: pkt.SenderIP,
		}
		out := ethernet.Frame{Dst: pkt.SenderMAC, Src: p.MAC, EtherType: ethernet.TypeARP, Payload: reply.Marshal()}
		p.Send(out.Marshal())
	}
}

// ingressIP handles an IP packet entering the fabric from a server.
//
//simlint:hotpath
func (r *Router) ingressIP(ipWire []byte) {
	pkt, err := ipv4.Unmarshal(ipWire)
	if err != nil {
		return
	}
	dst := pkt.Header.Dst
	if r.Cfg.RackSubnet.Contains(dst) {
		// Intra-rack: stay in IP world.
		r.deliverToRack(ipWire, dst)
		return
	}
	// The entire fabric is one routed hop from IP's point of view: the
	// ingress ToR decrements the TTL once; spines never touch the inner
	// packet. An expired TTL gets the standard router treatment —
	// time-exceeded from the rack gateway address — which is why a
	// traceroute across MR-MTP shows a single hop (cf. the per-router
	// hops of the BGP fabric).
	//
	// The TTL decrement mutates the received frame in place: ownership of
	// a delivered frame passes to the handler, Forward leaves the buffer
	// untouched on the expiry path (TimeExceeded quotes the original
	// bytes), and MarshalData copies the packet into the encapsulation.
	if err := ipv4.Forward(ipWire); err != nil {
		r.Stats.DataDropped++
		reply := ipv4.Packet{
			Header: ipv4.Header{
				TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoICMP,
				Src: r.GatewayIP(), Dst: pkt.Header.Src,
			},
			Payload: marshalICMP(icmp.TimeExceeded(ipWire)),
		}
		r.deliverToRack(reply.Marshal(), pkt.Header.Src)
		return
	}
	// Paper §III.D: derive the destination ToR VID from the destination
	// IP address with the §III.A algorithm. The encapsulation buffer is
	// pooled: sendOn copies it into the outbound frame (and the drop paths
	// retain nothing), so it is reclaimed as soon as forwardData returns.
	dstRoot := byte(dst[2])
	enc := r.encapData(r.rootVID, dstRoot, DataTTL, ipWire)
	r.forwardData(enc, dstRoot, flowhash.FromIPPacket(ipWire))
	r.frames.Put(enc)
}

// encapData is MarshalData drawing from the frame pool: the 4-byte MR-MTP
// header followed by the raw IP packet.
func (r *Router) encapData(srcRoot, dstRoot, ttl byte, ipPacket []byte) []byte {
	b := r.frames.Get(DataHeaderLen + len(ipPacket))
	b[0] = TypeData
	b[1] = ttl
	b[2] = srcRoot
	b[3] = dstRoot
	copy(b[DataHeaderLen:], ipPacket)
	return b
}

// handleData forwards (or delivers) an encapsulated packet arriving on a
// fabric port. It reports whether the delivered frame is spent — every byte
// the router needed has been copied out, so the caller may recycle the
// buffer. Gateway-addressed and trace-reply dispositions return false: those
// paths hand aliasing slices to listeners that have not been audited for
// retention.
//
//simlint:hotpath
func (r *Router) handleData(p *simnet.Port, payload []byte) bool {
	h, ipWire, err := ParseData(payload)
	if err != nil {
		r.Stats.DataDropped++
		return true
	}
	if r.Cfg.Tier == 1 && h.DstRoot == r.rootVID {
		// Destination ToR: de-encapsulate and hand the IP packet to the
		// rack (paper §III.D final step).
		pkt, err := ipv4.Unmarshal(ipWire)
		if err != nil {
			r.Stats.DataDropped++
			return true
		}
		r.Stats.DataDelivered++
		if pkt.Header.Dst == r.GatewayIP() {
			// Addressed to the ToR itself: trace probes and their replies.
			r.handleLocal(ipWire, pkt) //simlint:alloc gateway-addressed control traffic, off the forwarding fast path
			return false
		}
		// deliverToRack copies ipWire (into the rack frame or the ARP
		// pending queue) before returning.
		r.deliverToRack(ipWire, pkt.Header.Dst)
		return true
	}
	if h.TTL <= 1 {
		r.Stats.DataDropped++
		// Expired probes earn a time-exceeded reply, like an IP router
		// (path tracing depends on it); other expiries stay silent drops.
		r.sendTraceReply(h, ipWire) //simlint:alloc TTL expiry is off the fast path; reply construction allocates
		return false
	}
	// In-place decrement: the delivered frame is ours, and sendOn copies
	// the payload into a fresh outbound frame.
	payload[1] = h.TTL - 1
	r.forwardData(payload, h.DstRoot, flowhash.FromIPPacket(ipWire))
	return true
}

// forwardData routes an encapsulated packet: down the tree when the VID
// table knows the root, otherwise up by load-balanced default.
//
//simlint:hotpath
func (r *Router) forwardData(payload []byte, dstRoot byte, key flowhash.Key) {
	// Downward: a VID entry's acquisition port points at the root.
	for _, vidKey := range r.byRoot[dstRoot] {
		e := r.entries[vidKey]
		adj := r.adjs[e.port]
		if adj != nil && adj.state == adjUp && adj.port.Up() {
			r.Stats.DataForwarded++
			r.sendOn(adj, payload)
			return
		}
	}
	// Upward: hash across live uplinks not marked unreachable for the
	// destination root (§III.C load balancing). A DefaultRoot mark means
	// the uplink's device withdrew its entire up-default, so it is out
	// for every root it cannot name.
	ups := r.uplinks()
	eligible := r.eligScratch[:0]
	for _, adj := range ups {
		marks := r.unreachable[adj.port.Index]
		if !marks[dstRoot] && !marks[DefaultRoot] {
			eligible = append(eligible, adj)
		}
	}
	r.eligScratch = eligible
	if len(eligible) == 0 || r.downstream[dstRoot] || (r.Cfg.Tier == 1 && dstRoot == r.rootVID) {
		r.Stats.DataDropped++
		return
	}
	adj := eligible[int(key.Hash())%len(eligible)]
	r.Stats.DataForwarded++
	r.sendOn(adj, payload)
}

// deliverToRack sends an IP packet to a server behind this ToR, resolving
// the server's MAC on demand. The rack frame is composed in a pooled
// buffer, as ipstack's transmit does, so a warm pool makes the ToR's
// egress toward its servers allocation-free.
//
//simlint:hotpath
func (r *Router) deliverToRack(ipWire []byte, dst netaddr.IPv4) {
	if e, ok := r.arpCache[dst]; ok {
		port := r.Node.Port(e.port)
		buf := r.frames.Get(ethernet.HeaderLen + len(ipWire))
		ethernet.PutHeader(buf, e.mac, port.MAC, ethernet.TypeIPv4)
		copy(buf[ethernet.HeaderLen:], ipWire)
		port.Send(buf)
		return
	}
	r.arpPending[dst] = append(r.arpPending[dst], append([]byte(nil), ipWire...)) //simlint:alloc ARP-miss slow path; the copy detaches the queued packet from the delivered frame
	for _, p := range r.Node.Ports[1:] {
		if !r.isServerPort(p.Index) {
			continue
		}
		req := arp.Packet{Op: arp.OpRequest, SenderMAC: p.MAC, SenderIP: r.GatewayIP(), TargetIP: dst}
		f := ethernet.Frame{Dst: netaddr.Broadcast, Src: p.MAC, EtherType: ethernet.TypeARP, Payload: req.Marshal()}
		p.Send(f.Marshal())
	}
}

func marshalICMP(m icmp.Message) []byte { return m.Marshal() }

func (r *Router) flushRackPending(ip netaddr.IPv4) {
	pending := r.arpPending[ip]
	if pending == nil {
		return
	}
	delete(r.arpPending, ip)
	e := r.arpCache[ip]
	port := r.Node.Port(e.port)
	for _, wire := range pending {
		f := ethernet.Frame{Dst: e.mac, Src: port.MAC, EtherType: ethernet.TypeIPv4, Payload: wire}
		port.Send(f.Marshal())
	}
}
