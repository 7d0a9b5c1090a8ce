package vxlan

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ethernet"
	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

func TestMarshalUnmarshal(t *testing.T) {
	f := func(vniSeed uint32, inner []byte) bool {
		vni := vniSeed & 0xffffff
		gotVNI, gotInner, err := Unmarshal(Marshal(vni, inner))
		return err == nil && gotVNI == vni && bytes.Equal(gotInner, inner)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := Unmarshal([]byte{1, 2, 3}); err != ErrMalformed {
		t.Errorf("short: %v", err)
	}
	b := Marshal(5, nil)
	b[0] = 0 // I bit clear
	if _, _, err := Unmarshal(b); err != ErrMalformed {
		t.Errorf("no VNI flag: %v", err)
	}
}

func TestHeaderSize(t *testing.T) {
	// RFC 7348: 8-byte VXLAN header; total outer overhead over the inner
	// frame is 8 (VXLAN) + 8 (UDP) + 20 (IP) + 14 (Ethernet) = 50 bytes,
	// the figure the paper's §IX overhead discussion needs.
	if got := len(Marshal(1, nil)); got != 8 {
		t.Errorf("header = %d bytes, want 8", got)
	}
}

// TestInnerFrameOutlivesDelivery pins the copy NewVTEP makes under the
// stack's borrowed-payload rule: the UDP payload is recycled into the frame
// pool once the listener returns, so an OnInnerFrame callback that keeps
// the frame must still see its own bytes after later datagrams reuse the
// buffer.
func TestInnerFrameOutlivesDelivery(t *testing.T) {
	sim := simnet.New(1)
	na, nb := sim.AddNode("a"), sim.AddNode("b")
	sa, sb := ipstack.New(na), ipstack.New(nb)
	sim.Connect(na.AddPort(), nb.AddPort())
	sub := netaddr.MakePrefix(netaddr.MakeIPv4(10, 0, 0, 0), 24)
	sa.AddIface(na.Port(1), sub.Host(1), sub)
	sb.AddIface(nb.Port(1), sub.Host(2), sub)
	const vni = 42
	vmA, vmB := netaddr.MAC{0x02, 0xaa}, netaddr.MAC{0x02, 0xbb}
	vtepA := NewVTEP(sa, sub.Host(1), vni)
	vtepB := NewVTEP(sb, sub.Host(2), vni)
	vtepA.Learn(vmB, sub.Host(2))
	var kept []ethernet.Frame
	vtepB.OnInnerFrame = func(inner ethernet.Frame) { kept = append(kept, inner) }
	for i := 0; i < 4; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 100)
		vtepA.SendInner(ethernet.Frame{Dst: vmB, Src: vmA, EtherType: ethernet.TypeIPv4, Payload: payload})
		sim.RunFor(10 * time.Millisecond)
	}
	if len(kept) != 4 {
		t.Fatalf("VTEP delivered %d inner frames, want 4", len(kept))
	}
	for i, f := range kept {
		if want := bytes.Repeat([]byte{byte('a' + i)}, 100); !bytes.Equal(f.Payload, want) || f.Src != vmA {
			t.Errorf("kept frame %d changed after later deliveries: src %v payload %q...", i, f.Src, f.Payload[:8])
		}
	}
}
