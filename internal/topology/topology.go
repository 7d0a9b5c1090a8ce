// Package topology builds the folded-Clos fabrics of the paper's Fig. 2 and
// Fig. 3 and generalizes them to any number of PoDs (the paper's §IX future
// work scales the same construction).
//
// A fabric has three router tiers plus servers:
//
//	tier 3: top spines  T-1 .. T-k      (k = SpinesPerPod × UplinksPerSpine)
//	tier 2: pod spines  S-p-s           (s = 1..SpinesPerPod per pod p)
//	tier 1: leaves/ToRs L-p-t           (t = 1..LeavesPerPod per pod p)
//	tier 0: servers     H-p-t-i
//
// Wiring follows the paper exactly: leaf uplink port u connects pod spine u;
// pod spine uplink port u connects top spine s+(u-1)·SpinesPerPod (the
// "plane" wiring that gives S1_1 → {S2_1, S2_3} in Fig. 2); top spine t's
// downlink port p connects pod p. Uplink ports are numbered first on every
// device because MR-MTP derives child VIDs from parent port numbers.
//
// The package is pure data — no simulator dependency — so the same
// description drives the MR-MTP fabric, the BGP fabric, configuration
// rendering (Listings 1 and 2), and verification.
package topology

import (
	"fmt"
	"sort"

	"repro/internal/netaddr"
)

// Tier identifies a device's layer in the folded-Clos fabric. The paper
// counts servers as tier 0 and ToRs as tier 1.
type Tier int

// Fabric tiers.
const (
	TierServer Tier = iota
	TierLeaf
	TierSpine
	TierTop
)

func (t Tier) String() string {
	switch t {
	case TierServer:
		return "server"
	case TierLeaf:
		return "leaf"
	case TierSpine:
		return "spine"
	case TierTop:
		return "top-spine"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// AS numbering per RFC 7938 as captured in the paper's Listing 1: the top
// spines share one ASN, the spines of pod p share BaseASNTop+p, and every
// leaf gets a unique ASN.
const (
	BaseASNTop  uint32 = 64512
	BaseASNLeaf uint32 = 64601
)

// Spec describes a fabric to build.
type Spec struct {
	Pods            int // number of PoDs
	LeavesPerPod    int // ToRs per pod
	SpinesPerPod    int // tier-2 spines per pod
	UplinksPerSpine int // uplinks from each pod spine (top spines = SpinesPerPod × this)
	ServersPerLeaf  int // hosts per rack (1 on FABRIC, per the paper)
}

// TwoPodSpec is the paper's 2-PoD test topology (12 routers).
func TwoPodSpec() Spec {
	return Spec{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, ServersPerLeaf: 1}
}

// FourPodSpec is the paper's 4-PoD test topology (20 routers).
func FourPodSpec() Spec {
	return Spec{Pods: 4, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, ServersPerLeaf: 1}
}

// TopSpines returns the number of tier-3 devices implied by the spec.
func (s Spec) TopSpines() int { return s.SpinesPerPod * s.UplinksPerSpine }

// Validate rejects impossible specs.
func (s Spec) Validate() error {
	switch {
	case s.Pods < 1:
		return fmt.Errorf("topology: need at least one pod, got %d", s.Pods)
	case s.LeavesPerPod < 1:
		return fmt.Errorf("topology: need at least one leaf per pod, got %d", s.LeavesPerPod)
	case s.SpinesPerPod < 1:
		return fmt.Errorf("topology: need at least one spine per pod, got %d", s.SpinesPerPod)
	case s.UplinksPerSpine < 1:
		return fmt.Errorf("topology: need at least one uplink per spine, got %d", s.UplinksPerSpine)
	case s.ServersPerLeaf < 0:
		return fmt.Errorf("topology: negative servers per leaf")
	case s.Pods*s.LeavesPerPod > 245:
		// ToR VIDs are derived from the third byte of 192.168.x.0/24
		// (paper §III.A) starting at 11, so 245 leaves fit.
		return fmt.Errorf("topology: %d leaves exceed the single-byte VID space", s.Pods*s.LeavesPerPod)
	}
	return nil
}

// Device is one node in the fabric.
type Device struct {
	Name string
	// ID is the device's dense 0-based index in creation order, unique
	// within its topology: per-fabric tables index by it instead of by
	// name.
	ID   int
	Tier Tier
	// Level is the numeric tier: 0 servers, 1 ToRs, counting up to the
	// fabric's top. It equals int(Tier) in three-tier fabrics and is set
	// explicitly by the multi-tier builder.
	Level int
	Pod   int // 1-based; 0 for top spines
	Index int // 1-based within (tier, pod)
	ASN   uint32

	// Leaf-only fields.
	VID          int            // ToR VID derived from the server subnet (paper §III.A)
	ServerSubnet netaddr.Prefix // 192.168.<VID>.0/24
	ServerPort   int            // first port facing the rack (the leavesNetworkPortDict entry)

	// Server-only field: the host's address inside its rack subnet.
	IP netaddr.IPv4

	Ports []*Port // 1-based; Ports[0] is nil
}

// Port is one interface of a device, with the BGP point-to-point addressing
// that the paper's Listings 1 and 3 show (the MR-MTP fabric ignores the IPs
// on router-to-router links — spines need no addresses at all).
type Port struct {
	Device *Device
	Index  int
	Peer   *Port
	IP     netaddr.IPv4   // this end's address on the link subnet
	Subnet netaddr.Prefix // /24 per link, matching Listing 3
}

// Name renders the paper-style interface name ("S-1-1:eth3").
func (p *Port) Name() string { return fmt.Sprintf("%s:eth%d", p.Device.Name, p.Index) }

// IsUplink reports whether the port faces a higher tier.
func (p *Port) IsUplink() bool { return p.Peer != nil && p.Peer.Device.Level > p.Device.Level }

// Link is an undirected edge (reported once, A at the lower tier).
type Link struct {
	A, B *Port
}

// Topology is a fully wired fabric.
type Topology struct {
	Spec    Spec
	Devices map[string]*Device
	Links   []Link

	// Ordered device lists for deterministic iteration. Aggs (zone
	// spines) exist only in multi-tier fabrics.
	Leaves    []*Device
	Spines    []*Device
	Aggs      []*Device
	Tops      []*Device
	Servers   []*Device
	linkCount int
}

// Routers returns every non-server device in deterministic order.
func (t *Topology) Routers() []*Device {
	out := make([]*Device, 0, len(t.Leaves)+len(t.Spines)+len(t.Aggs)+len(t.Tops))
	out = append(out, t.Leaves...)
	out = append(out, t.Spines...)
	out = append(out, t.Aggs...)
	out = append(out, t.Tops...)
	return out
}

// Device returns a device by name, or nil.
func (t *Topology) Device(name string) *Device { return t.Devices[name] }

// sortedDevices returns every device in name order, so full-fabric sweeps
// (wiring verification, for one) behave identically run to run.
func (t *Topology) sortedDevices() []*Device {
	names := make([]string, 0, len(t.Devices))
	for name := range t.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Device, len(names))
	for i, name := range names {
		out[i] = t.Devices[name]
	}
	return out
}

// LeafByVID returns the ToR with the given VID, or nil.
func (t *Topology) LeafByVID(vid int) *Device {
	for _, l := range t.Leaves {
		if l.VID == vid {
			return l
		}
	}
	return nil
}

// Build constructs and verifies a fabric from the spec.
func Build(spec Spec) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Spec: spec, Devices: make(map[string]*Device)}

	add := func(d *Device) *Device {
		d.ID = len(t.Devices)
		d.Ports = []*Port{nil}
		d.Level = int(d.Tier)
		t.Devices[d.Name] = d
		return d
	}
	newPort := func(d *Device) *Port {
		p := &Port{Device: d, Index: len(d.Ports)}
		d.Ports = append(d.Ports, p)
		return p
	}
	// wire connects lower-tier a to higher-tier b, numbering the link
	// subnet 172.16.<n>.0/24 with the *higher* tier at .1 (Listing 1/3).
	wire := func(a, b *Port) {
		a.Peer, b.Peer = b, a
		subnet := netaddr.MakePrefix(netaddr.MakeIPv4(172, byte(16+t.linkCount/256), byte(t.linkCount%256), 0), 24)
		t.linkCount++
		b.IP = subnet.Host(1)
		a.IP = subnet.Host(2)
		a.Subnet, b.Subnet = subnet, subnet
		t.Links = append(t.Links, Link{A: a, B: b})
	}

	// Top spines.
	for k := 1; k <= spec.TopSpines(); k++ {
		top := add(&Device{Name: fmt.Sprintf("T-%d", k), Tier: TierTop, Index: k, ASN: BaseASNTop})
		for p := 1; p <= spec.Pods; p++ {
			newPort(top) // downlink port p faces pod p, wired below
		}
		t.Tops = append(t.Tops, top)
	}

	leafCount := 0
	for pod := 1; pod <= spec.Pods; pod++ {
		// Pod spines: uplinks first (ports 1..U), then leaf downlinks.
		for s := 1; s <= spec.SpinesPerPod; s++ {
			sp := add(&Device{
				Name: fmt.Sprintf("S-%d-%d", pod, s), Tier: TierSpine,
				Pod: pod, Index: s, ASN: BaseASNTop + uint32(pod),
			})
			for u := 1; u <= spec.UplinksPerSpine; u++ {
				topIndex := s + (u-1)*spec.SpinesPerPod
				top := t.Tops[topIndex-1]
				wire(newPort(sp), top.Ports[pod])
			}
			for i := 0; i < spec.LeavesPerPod; i++ {
				newPort(sp) // downlink ports, wired when leaves appear
			}
			t.Spines = append(t.Spines, sp)
		}
		// Leaves: uplink ports 1..SpinesPerPod, then server ports.
		for lf := 1; lf <= spec.LeavesPerPod; lf++ {
			leafCount++
			vid := 10 + leafCount
			leaf := add(&Device{
				Name: fmt.Sprintf("L-%d-%d", pod, lf), Tier: TierLeaf,
				Pod: pod, Index: lf,
				ASN:          BaseASNLeaf + uint32(leafCount-1),
				VID:          vid,
				ServerSubnet: netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, byte(vid), 0), 24),
			})
			for s := 1; s <= spec.SpinesPerPod; s++ {
				sp := t.Devices[fmt.Sprintf("S-%d-%d", pod, s)]
				wire(newPort(leaf), sp.Ports[spec.UplinksPerSpine+lf])
			}
			leaf.ServerPort = spec.SpinesPerPod + 1
			t.Leaves = append(t.Leaves, leaf)
			// Servers in the rack share the leaf's subnet; the leaf
			// itself answers on .254 as the rack gateway.
			for i := 1; i <= spec.ServersPerLeaf; i++ {
				srv := add(&Device{
					Name: fmt.Sprintf("H-%d-%d-%d", pod, lf, i), Tier: TierServer,
					Pod: pod, Index: i,
					IP: leaf.ServerSubnet.Host(uint32(i)),
				})
				sp := newPort(srv)
				lp := newPort(leaf)
				sp.Peer, lp.Peer = lp, sp
				sp.Subnet, lp.Subnet = leaf.ServerSubnet, leaf.ServerSubnet
				sp.IP = srv.IP
				lp.IP = LeafGatewayIP(leaf)
				t.Links = append(t.Links, Link{A: sp, B: lp})
				t.Servers = append(t.Servers, srv)
			}
		}
	}
	if err := t.Verify(); err != nil {
		return nil, err
	}
	return t, nil
}

// LeafGatewayIP returns the address a ToR answers on inside its rack subnet.
func LeafGatewayIP(leaf *Device) netaddr.IPv4 { return leaf.ServerSubnet.Host(254) }

// DeriveVID implements the paper's §III.A VID derivation: the third byte of
// the subnet IP the ToR shares with its servers.
func DeriveVID(subnet netaddr.Prefix) int { return int(subnet.IP[2]) }

// DeriveVIDFromIP maps a server address to its ToR's VID, the lookup a
// source ToR performs for every packet it encapsulates (paper §III.D).
func DeriveVIDFromIP(ip netaddr.IPv4) int { return int(ip[2]) }
