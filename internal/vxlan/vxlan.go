// Package vxlan implements the VXLAN encapsulation (RFC 7348) the paper
// assumes for inter-rack VM communication (§III.A): VM-to-VM Ethernet
// frames ride in a VXLAN/UDP/IP envelope whose outer addresses are the
// *server* addresses — which is exactly what lets the ToR derive the
// destination ToR VID from the outer destination IP's third byte. This
// package provides the envelope plus a minimal VTEP (VXLAN tunnel
// endpoint) so the tests can run the paper's full encapsulation chain:
// VM frame → VXLAN/UDP/IP → MR-MTP → fabric.
package vxlan

import (
	"errors"

	"repro/internal/ethernet"
	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/udp"
)

// Port is the IANA-assigned VXLAN UDP port.
const Port = 4789

// HeaderLen is the VXLAN header size.
const HeaderLen = 8

// flagVNIValid is the I bit (RFC 7348 §5.1).
const flagVNIValid = 0x08

// ErrMalformed reports an undecodable VXLAN packet.
var ErrMalformed = errors.New("vxlan: malformed packet")

// Marshal wraps an inner Ethernet frame under a VNI.
func Marshal(vni uint32, innerFrame []byte) []byte {
	b := make([]byte, HeaderLen+len(innerFrame))
	b[0] = flagVNIValid
	b[4] = byte(vni >> 16)
	b[5] = byte(vni >> 8)
	b[6] = byte(vni)
	copy(b[HeaderLen:], innerFrame)
	return b
}

// Unmarshal splits a VXLAN packet into VNI and inner frame.
func Unmarshal(b []byte) (vni uint32, innerFrame []byte, err error) {
	if len(b) < HeaderLen || b[0]&flagVNIValid == 0 {
		return 0, nil, ErrMalformed
	}
	vni = uint32(b[4])<<16 | uint32(b[5])<<8 | uint32(b[6])
	return vni, b[HeaderLen:], nil
}

// VTEP is a minimal VXLAN tunnel endpoint on a server: it maps VM MAC
// addresses to remote server IPs (a static forwarding database, as a
// controller would program) and hands decapsulated frames to the local
// virtual switch.
type VTEP struct {
	stack *ipstack.Stack
	local netaddr.IPv4
	vni   uint32

	// fdb maps inner destination MACs to the server hosting the VM.
	fdb map[netaddr.MAC]netaddr.IPv4
	// OnInnerFrame receives decapsulated VM frames. Each frame owns its
	// bytes (a copy out of the borrowed UDP payload), so the callback may
	// retain it.
	OnInnerFrame func(inner ethernet.Frame)

	// Stats for the overhead discussion in the paper's §IX.
	Stats struct {
		Encapsulated uint64
		Decapsulated uint64
		Unknown      uint64
	}
}

// NewVTEP attaches a tunnel endpoint to a server stack.
func NewVTEP(stack *ipstack.Stack, local netaddr.IPv4, vni uint32) *VTEP {
	v := &VTEP{
		stack: stack,
		local: local,
		vni:   vni,
		fdb:   make(map[netaddr.MAC]netaddr.IPv4),
	}
	stack.ListenUDP(Port, func(src, dst netaddr.IPv4, dg udp.Datagram) {
		gotVNI, inner, err := Unmarshal(dg.Payload)
		if err != nil || gotVNI != v.vni {
			return
		}
		// The datagram payload is borrowed from the stack's frame pool
		// (ipstack.UDPHandler), and OnInnerFrame may keep the frame: hand
		// it a copy that owns its bytes.
		f, err := ethernet.Unmarshal(append([]byte(nil), inner...))
		if err != nil {
			return
		}
		v.Stats.Decapsulated++
		if v.OnInnerFrame != nil {
			v.OnInnerFrame(f)
		}
	})
	return v
}

// Learn programs the forwarding database: VM mac lives behind server ip.
func (v *VTEP) Learn(mac netaddr.MAC, server netaddr.IPv4) { v.fdb[mac] = server }

// SendInner encapsulates a VM frame toward the server hosting its
// destination MAC. It reports whether the destination was known.
func (v *VTEP) SendInner(inner ethernet.Frame) bool {
	server, ok := v.fdb[inner.Dst]
	if !ok {
		v.Stats.Unknown++
		return false
	}
	v.Stats.Encapsulated++
	v.stack.SendUDP(v.local, server, Port, Port, Marshal(v.vni, inner.Marshal()))
	return true
}
