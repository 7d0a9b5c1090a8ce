package harness

import (
	"testing"
	"time"

	"repro/internal/topology"
)

// TestIdleFabricFramePoolFlat pins the closed frame lifecycle on a real
// fabric: once warmed, an idle 2-PoD fabric only exchanges keep-alives and
// periodic control messages (MR-MTP hellos, BGP keep-alives over TCP, BFD
// over UDP), and every one of those frames must go back to the pool after
// its receiver parses it. The pool's InUse count — Gets
// minus Puts — therefore stays flat over 5 s instead of climbing by one
// per control frame, and the buffers it lends are recycled, not fresh.
func TestIdleFabricFramePoolFlat(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
		t.Run(proto.String(), func(t *testing.T) {
			f := buildAndWarm(t, topology.TwoPodSpec(), proto)
			warm := f.Sim.FrameStats()
			f.Sim.RunFor(5 * time.Second)
			idle := f.Sim.FrameStats()
			gets := (idle.Recycled + idle.Fresh) - (warm.Recycled + warm.Fresh)
			if gets == 0 {
				t.Fatal("no frames lent in 5 s: the fabric sent no keep-alives")
			}
			if idle.InUse > warm.InUse {
				t.Errorf("InUse climbed from %d to %d over 5 s idle (%d frames lent): a receive path drops frames without Put",
					warm.InUse, idle.InUse, gets)
			}
			if fresh := idle.Fresh - warm.Fresh; fresh > 0 {
				t.Errorf("%d of %d frames lent over 5 s idle were fresh allocations, want all recycled", fresh, gets)
			}
			t.Logf("InUse %d -> %d, %d frames lent, %d returned", warm.InUse, idle.InUse, gets, idle.Returned-warm.Returned)
		})
	}
}
