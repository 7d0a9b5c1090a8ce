package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/workload"
)

// goldenHybridDigests pins the SHA-256 of the JSON-encoded WorkloadResult of
// one 10⁵-flow hybrid trial per protocol. Performance work on the hybrid
// path (flow schedule, path walk, solver, FIB) must leave every result bit
// for bit where it was; a digest mismatch means a behaviour change, not a
// flaky test.
//
// To re-record after a deliberate behaviour change, run
//
//	go test -run TestHybridWorkloadGolden -v ./internal/harness
//
// and copy the digests the failures print, naming the change that moved
// them in the commit message.
var goldenHybridDigests = map[Protocol]string{
	ProtoMRMTP: "c39217d3d578bc9afa4e4cca1dc92f4f43067ba8f5e3782530ec2db4b961eed7",
	ProtoBGP:   "5111c57ae68874838d99174dc54e08268bebd17e6f74459f60f981420e15e302",
}

// goldenHybridWorkload is the hybrid-million shape at a tenth of the scale:
// fixed 100 kB flows arriving over 2 s, all fluid, steady state.
func goldenHybridWorkload() WorkloadConfig {
	const flows = 100_000
	w := DefaultWorkloadConfig()
	w.Engine = workload.ModeHybrid
	w.Flows = flows
	w.Sizes = workload.FixedSize(100_000)
	w.MeanArrival = 2 * time.Second / flows
	w.RateInterval = 50 * time.Millisecond
	w.SampleInterval = time.Second
	w.MaxRun = 1200 * time.Second
	return w
}

func TestHybridWorkloadGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-flow trials skipped in -short")
	}
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		res, err := RunWorkload(DefaultOptions(topology.TwoPodSpec(), proto, 1), goldenHybridWorkload())
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if r := res.Report; r.Completed != r.Flows {
			t.Errorf("%v: completed %d/%d flows", proto, r.Completed, r.Flows)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%v: encode: %v", proto, err)
		}
		sum := sha256.Sum256(data)
		if got, want := hex.EncodeToString(sum[:]), goldenHybridDigests[proto]; got != want {
			t.Errorf("%v: result digest %s, want %s", proto, got, want)
		}
	}
}
