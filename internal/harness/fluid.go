package harness

import (
	"fmt"
	"time"

	"repro/internal/flowhash"
	"repro/internal/fluid"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file couples the fluid solver to a built fabric: every directed link
// becomes a registered solver capacity whose committed share squeezes the
// packet serializer, and flow paths are resolved by replaying the routers'
// own forwarding decisions — no packets sent, but the same MR-MTP VID walk
// or ECMP FIB lookup the packet path would hash through.

// fluidPlan is the per-trial binding of solver links to fabric ports.
type fluidPlan struct {
	solver *fluid.Solver
	// ids maps each transmit direction, by its from-port's device ID and
	// port index, to the solver link reserved for it (noLink where none
	// is). Lookup-only after construction.
	ids [][]fluid.LinkID
	// serial is the one-packet store-and-forward delay per hop, part of
	// each path's fixed latency offset.
	serial time.Duration
}

// noLink marks a port with no registered solver link.
const noLink fluid.LinkID = -1

// buildFluidPlan registers both directions of every fabric link with a fresh
// solver. The apply hooks reserve the committed share on the wire, so packet
// and fluid traffic compete for the same capacity. The per-flow rate cap
// mirrors the packet engine's pacing (one packet per PacketInterval), which
// is what keeps uncongested-path FCTs comparable across engines.
func (f *Fabric) buildFluidPlan(w WorkloadConfig) (*fluidPlan, error) {
	if w.LinkBps <= 0 {
		return nil, fmt.Errorf("fluid engine needs rate-limited links (LinkBps > 0): an unshaped fabric has no capacities to allocate")
	}
	if w.PacketSize <= 0 || w.PacketInterval <= 0 {
		return nil, fmt.Errorf("fluid engine needs PacketSize and PacketInterval for the pacing-equivalent rate cap")
	}
	capBps := float64(w.PacketSize*8) / w.PacketInterval.Seconds()
	plan := &fluidPlan{
		solver: fluid.New(fluid.Config{RateCapBps: capBps}),
		ids:    make([][]fluid.LinkID, len(f.devs)),
		serial: time.Duration(int64(w.PacketSize) * 8 * int64(time.Second) / w.LinkBps),
	}
	for id, d := range f.devs {
		ports := make([]fluid.LinkID, len(d.node.Ports))
		for i := range ports {
			ports[i] = noLink
		}
		plan.ids[id] = ports
	}
	for _, link := range f.Sim.Links() {
		link := link
		for _, from := range []*simnet.Port{link.A, link.B} {
			from := from
			dev := f.Topo.Devices[from.Node.Name]
			plan.ids[dev.ID][from.Index] = plan.solver.AddLink(w.LinkBps, func(bps int64, at time.Duration) {
				link.SetFluidLoad(from, bps, at)
			})
		}
	}
	return plan, nil
}

// pathFunc resolves a flow onto the solver's directed links by walking the
// fabric's forwarding state: server access link, then nextHopPort decisions
// leaf-to-leaf, then the destination access link. The returned slice is
// reused across calls (the solver copies on group creation). Resolution
// fails — demoting the flow's group to its stale path, or abandoning an
// unlaunched flow — when a forwarding table has no next hop, e.g. mid-fault.
func (f *Fabric) pathFunc(plan *fluidPlan, dstPort uint16) workload.PathFunc {
	servers := f.Topo.Servers
	path := make([]fluid.LinkID, 0, 8)
	return func(fl *workload.Flow) ([]fluid.LinkID, time.Duration, bool) {
		src, dst := servers[fl.Src], servers[fl.Dst]
		key := flowhash.Key{
			Src: src.IP, Dst: dst.IP, Proto: ipv4.ProtoUDP,
			SrcPort: fl.SrcPort, DstPort: dstPort,
		}
		path = path[:0]
		var latency time.Duration
		add := func(dev *topology.Device, port int) bool {
			id := plan.ids[dev.ID][port]
			if id == noLink {
				return false
			}
			path = append(path, id)
			latency += f.dev(dev).node.Ports[port].Link.Latency + plan.serial
			return true
		}
		if !add(src, 1) {
			return nil, 0, false
		}
		dstLeaf := dst.Ports[1].Peer.Device
		dstRoot := byte(dstLeaf.VID)
		dev := src.Ports[1].Peer.Device
		for hop := 0; dev != dstLeaf; hop++ {
			if hop >= 6 { // longest valid folded-Clos walk is leaf-spine-root-spine-leaf
				return nil, 0, false
			}
			port, ok := f.nextHopPort(dev, dstRoot, dst.IP, key)
			if !ok {
				return nil, 0, false
			}
			tp := dev.Ports[port]
			if tp == nil || tp.Peer == nil || tp.Peer.Device.Tier == topology.TierServer {
				return nil, 0, false
			}
			if !add(dev, port) {
				return nil, 0, false
			}
			dev = tp.Peer.Device
		}
		if !add(dstLeaf, dst.Ports[1].Peer.Index) {
			return nil, 0, false
		}
		return path, latency, true
	}
}

// nextHopPort replicates one router's forwarding decision for a flow: the
// protocol's own next-hop selection, returned as the egress port index.
// dstRoot drives the MR-MTP VID walk, dstIP the BGP FIB lookup; both planes
// hash the same flow key their data path would. It is the one next-hop
// helper the fluid path walk and the tracer share (DESIGN.md §15).
func (f *Fabric) nextHopPort(dev *topology.Device, dstRoot byte, dstIP netaddr.IPv4, key flowhash.Key) (int, bool) {
	d := f.dev(dev)
	if f.Opts.Protocol == ProtoMRMTP {
		return d.router.NextDataHop(dstRoot, key)
	}
	nh, ok := d.stack.NextHopFor(dstIP, key)
	if !ok {
		return 0, false
	}
	return nh.Iface.Port.Index, true
}
