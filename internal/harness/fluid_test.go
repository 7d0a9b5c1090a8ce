package harness

import (
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// hybridWorkload is the small hybrid cell the quick tests run: a websearch
// mix (so both mice below the cutoff and elephants above it appear) on a
// shaped 2-PoD fabric.
func hybridWorkload() WorkloadConfig {
	w := DefaultWorkloadConfig()
	w.Engine = workload.ModeHybrid
	w.Flows = 40
	w.MeanArrival = 2 * time.Millisecond
	w.MaxRun = 20 * time.Second
	return w
}

func TestHybridWorkloadSplitsEngines(t *testing.T) {
	res, err := RunWorkload(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 42), hybridWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "hybrid" {
		t.Errorf("engine = %q, want hybrid", res.Engine)
	}
	r := res.Report
	if r.Completed != r.Flows {
		t.Fatalf("completed %d/%d flows, want all", r.Completed, r.Flows)
	}
	if r.FluidFlows == 0 || r.FluidFlows == r.Flows {
		t.Errorf("fluid flows = %d of %d: hybrid must split the mix across both engines", r.FluidFlows, r.Flows)
	}
	if r.PeakConcurrent <= 0 {
		t.Error("peak concurrency not measured")
	}
	if r.PacketsSent == 0 {
		t.Error("packet-path mice sent no packets")
	}
	for _, b := range r.Buckets {
		for _, ms := range b.FCTms {
			if ms <= 0 {
				t.Fatalf("bucket %s has non-positive FCT %v ms", b.Label, ms)
			}
		}
	}
}

func TestFluidModeCarriesEverything(t *testing.T) {
	w := hybridWorkload()
	w.Engine = workload.ModeFluid
	res, err := RunWorkload(DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 42), w)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Completed != r.Flows || r.FluidFlows != r.Flows {
		t.Fatalf("completed %d/%d, fluid %d: pure fluid mode must carry every flow", r.Completed, r.Flows, r.FluidFlows)
	}
	if r.PacketsSent != 0 {
		t.Errorf("fluid mode sent %d data packets, want 0", r.PacketsSent)
	}
	// The reservation shows up in telemetry even though no packets flew.
	var fluidBytes uint64
	for _, sr := range res.Series {
		for _, smp := range sr.Samples {
			fluidBytes += smp.FluidBytes
		}
	}
	if fluidBytes == 0 {
		t.Error("no fluid bytes carried in any link series")
	}
	if res.PeakUtil <= 0 {
		t.Error("fluid reservation should register link utilization")
	}
}

func TestFluidRequiresShapedLinks(t *testing.T) {
	w := hybridWorkload()
	w.LinkBps = 0
	if _, err := RunWorkload(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 1), w); err == nil {
		t.Fatal("fluid engine on unshaped links must fail loudly, not allocate from nothing")
	}
}

// Same seed, same engine — byte-identical results, in both fluid modes.
func TestFluidDeterministicReplay(t *testing.T) {
	for _, mode := range []workload.Mode{workload.ModeFluid, workload.ModeHybrid} {
		w := hybridWorkload()
		w.Engine = mode
		opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 99)
		a, err := RunWorkload(opts, w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunWorkload(opts, w)
		if err != nil {
			t.Fatal(err)
		}
		compareWorkloadResults(t, mode.String(), a, b)
	}
}

// compareWorkloadResults asserts two results are observably identical,
// handling LinkSeries' unexported engine-graph pointers like the
// partitioned-identity tests do.
func compareWorkloadResults(t *testing.T, label string, a, b WorkloadResult) {
	t.Helper()
	if len(a.Series) != len(b.Series) {
		t.Fatalf("%s: %d series vs %d", label, len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i].Name != b.Series[i].Name {
			t.Errorf("%s: series %d named %q vs %q", label, i, a.Series[i].Name, b.Series[i].Name)
		} else if !reflect.DeepEqual(a.Series[i].Samples, b.Series[i].Samples) {
			t.Errorf("%s: series %s samples differ", label, a.Series[i].Name)
		}
	}
	a.Series, b.Series = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: results differ:\n%+v\n%+v", label, a, b)
	}
}

// The hybrid engine must agree with the packet engine where they overlap:
// steady-state FCT distributions on the published mixes, within 5% at the
// median and the tail. This is the fidelity regression gate — if the fluid
// model's rate cap, latency offset or share computation drifts from what
// the packet path actually delivers, it trips here.
func TestHybridMatchesPacketFCT(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-flow regression gate skipped in -short")
	}
	mixes := []struct {
		name  string
		sizes workload.SizeDist
	}{
		{"websearch", workload.WebSearchMix()},
		{"cache", workload.CacheMix()},
	}
	for _, mix := range mixes {
		w := DefaultWorkloadConfig()
		w.Flows = 1000
		w.Sizes = mix.sizes
		// The published arrival rate: a busy-but-stable fabric. The gate
		// compares the engines in the steady-state regime where the
		// packet engine is not loss-driven — a lossless fluid model has
		// no analogue of RTO-quantized repair tails (DESIGN.md §15).
		w.MaxRun = 60 * time.Second
		opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 7)

		w.Engine = workload.ModePacket
		pkt, err := RunWorkload(opts, w)
		if err != nil {
			t.Fatal(err)
		}
		w.Engine = workload.ModeHybrid
		hyb, err := RunWorkload(opts, w)
		if err != nil {
			t.Fatal(err)
		}
		ps := pooledFCT(pkt)
		hs := pooledFCT(hyb)
		if ps.N != 1000 || hs.N != 1000 {
			t.Fatalf("%s: completed %d packet / %d hybrid FCTs, want 1000 each", mix.name, ps.N, hs.N)
		}
		checkDivergence(t, mix.name+" P50", ps.P50, hs.P50)
		checkDivergence(t, mix.name+" P99", ps.P99, hs.P99)
	}
}

func pooledFCT(r WorkloadResult) stats.Summary {
	var all []float64
	for _, b := range r.Report.Buckets {
		all = append(all, b.FCTms...)
	}
	return stats.Summarize(all)
}

func checkDivergence(t *testing.T, what string, pkt, hyb float64) {
	t.Helper()
	if pkt <= 0 {
		t.Fatalf("%s: packet baseline %v", what, pkt)
	}
	rel := (hyb - pkt) / pkt
	if rel < 0 {
		rel = -rel
	}
	t.Logf("%s: packet %.3f ms, hybrid %.3f ms (%.2f%% divergence)", what, pkt, hyb, 100*rel)
	if rel > 0.05 {
		t.Errorf("%s diverges %.2f%%: packet %.3f ms vs hybrid %.3f ms (gate: 5%%)", what, 100*rel, pkt, hyb)
	}
}

// Hybrid trials are bit-identical at any shard count, including across a
// mid-run failure with its Repath control events.
func TestFluidPartitionedIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full fabric trials in -short mode")
	}
	opts := DefaultOptions(topology.FourPodSpec(), ProtoMRMTP, 17)
	w := DefaultWorkloadConfig()
	w.Engine = workload.ModeHybrid
	w.Flows = 60
	w.MaxRun = 10 * time.Second
	w.MidFailure = true
	seq, err := RunWorkload(withPartitions(opts, 1), w)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, shards := range partitionCounts {
		par, err := RunWorkload(withPartitions(opts, shards), w)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		compareWorkloadResults(t, "shards", seq, par)
	}
}

// The scale target: a million concurrent fluid flows in one hybrid trial.
// Gated behind CLOSLAB_MILLION=1 (`make million-smoke`): on a 2-core Xeon
// container it takes about 3 s of CPU and peaks at about 0.8 GB resident,
// most of it the 10 ms link telemetry over a ~1000 s virtual drain.
func TestMillionFlowHybrid(t *testing.T) {
	if os.Getenv("CLOSLAB_MILLION") == "" {
		t.Skip("set CLOSLAB_MILLION=1 to run the million-flow trial")
	}
	w := DefaultWorkloadConfig()
	w.Engine = workload.ModeHybrid
	w.Flows = 1_000_000
	w.Sizes = workload.FixedSize(100_000)
	w.MeanArrival = time.Microsecond
	w.RateInterval = 50 * time.Millisecond
	w.MaxRun = 1200 * time.Second
	res, err := RunWorkload(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 3), w)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Completed != r.Flows {
		t.Fatalf("completed %d/%d", r.Completed, r.Flows)
	}
	if r.PeakConcurrent < 900_000 {
		t.Errorf("peak concurrency %d, want ~10^6: arrivals outpace a congested drain", r.PeakConcurrent)
	}
}
