package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func mustWorkload(t *testing.T, name string) workloadDef {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Two passes with one seed give the same sim_digest; another seed gives
// another one.
func TestDigestRepeatsPerSeed(t *testing.T) {
	w := mustWorkload(t, "packet-fct")
	a := runPass(w, w.trials(1, config{}), nil, false)
	b := runPass(w, w.trials(1, config{}), nil, false)
	c := runPass(w, w.trials(2, config{}), nil, false)
	for _, p := range []passResult{a, b, c} {
		if p.failed != 0 {
			t.Fatalf("pass failed %d operations: %v", p.failed, p.problems)
		}
	}
	if a.digest != b.digest {
		t.Errorf("same seed, different sim_digest: %s vs %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 1 and 2 share sim_digest %s", a.digest)
	}
}

// A run cap too short for the flows to finish counts the unfinished flows
// as failed and makes the command exit non-zero.
func TestShortMaxRunFails(t *testing.T) {
	var out, errOut bytes.Buffer
	code := report(options{workload: "packet-fct", seed: 1, cfg: config{maxRun: time.Millisecond}}, &out, &errOut)
	if code == 0 {
		t.Fatalf("exit code 0 with a 1 ms run cap")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if s.Correct || s.Failed == 0 || float64(s.Failed)/float64(s.Attempted) <= 0 {
		t.Errorf("summary %+v: want failed_frac > 0 and correct=false", s)
	}
	if _, ok := s.Metrics["flows_per_s"]; !ok {
		t.Errorf("metrics %v lack flows_per_s", s.Metrics)
	}
}

// Every trace cell fault-campaign keeps names a scenario of the harness's
// catalog, so a renamed scenario cannot drop out of the workload unnoticed.
func TestTraceCellsNameCatalogScenarios(t *testing.T) {
	for p, names := range traceCells {
		if got := len(traceScenarios(p)); got != len(names) {
			t.Errorf("%v: %d of the trace cells %v are in harness.TraceCatalog", p, got, names)
		}
	}
}

// The traced run reports every per-layer metric, and its replays reproduce
// the harness results on wrapped fabrics.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	var out bytes.Buffer
	s, err := run(options{workload: "paper-grid", seed: 1, trace: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Correct {
		t.Fatalf("traced run failed %d of %d operations:\n%s", s.Failed, s.Attempted, out.String())
	}
	for _, m := range perLayer {
		got, ok := s.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("%s: got %+v, want a value in %s", m.name, got, m.unit)
		}
	}
	for _, name := range []string{"simnet.events", "simnet.cpu_s", "ipstack.frames_rx", "mrmtp.hellos_sent", "bgp.control_msgs", "harness.build_s"} {
		if s.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on paper-grid, want > 0", name, s.Metrics[name].Value)
		}
	}
}

// The package-to-layer table maps a synthetic profile's functions to the
// layers, library leaves are charged to their nearest repository caller,
// and the phase label filters samples.
func TestProfileSplitsByLayer(t *testing.T) {
	stacks := []struct {
		fn    string
		ms    int64
		phase string
	}{
		{"repro/internal/simnet.(*Sim).siftDown", 10, "pass"},
		{"repro/internal/simnet/framepool.(*Pool).Get", 1, "pass"},
		{"repro/internal/udp.pseudoChecksum", 2, "pass"},
		{"repro/internal/ipstack.(*FIB).Lookup", 3, "pass"},
		{"repro/internal/ethernet.Unmarshal", 4, "pass"},
		{"repro/internal/mrmtp.(*Router).HandleFrame", 5, "pass"},
		{"repro/internal/tcp.(*Endpoint).send", 6, "pass"},
		{"repro/internal/bgp.(*Speaker).decide", 7, "pass"},
		{"repro/internal/bfd.(*Session).tx", 8, "pass"},
		{"repro/internal/fluid.(*Solver).recompute", 9, "pass"},
		{"repro/internal/harness.(*Fabric).pathFunc.func1", 11, "pass"},
		{"repro/internal/harness.(*traceRun).sweep", 12, "pass"},
		{"repro/internal/workload.(*Engine).Done", 13, "pass"},
		{"repro/internal/pathtrace.(*Prober).tick", 14, "pass"},
		{"repro/internal/chaos.Apply.func2", 15, "pass"},
		{"repro/internal/metrics.(*Log).Analyze", 16, "pass"},
		{"repro/internal/flowhash.Hash", 17, "pass"},
		{"runtime.mallocgc", 18, "pass"},
		{"sort.insertionSort;sort.Sort;repro/internal/fluid.(*Solver).solve", 20, "pass"},
		{"encoding/json.Marshal;repro/perfbench.runPass", 5, "pass"},
		{"repro/internal/simnet.(*Sim).heapPop", 100, "replay"},
	}
	var funcs []string
	for _, s := range stacks {
		funcs = append(funcs, s.fn)
	}
	data := syntheticProfile(t, funcs, func(i int) (int64, string) { return stacks[i].ms, stacks[i].phase })
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	got := splitProfile(p, map[string]string{"phase": "pass"})
	want := map[string]float64{
		"simnet.cpu_s":             0.011,
		"simnet.heap_cpu_s":        0.010,
		"ipstack.cpu_s":            0.009,
		"ipstack.checksum_cpu_s":   0.002,
		"ipstack.fib_lookup_cpu_s": 0.003,
		"mrmtp.cpu_s":              0.005,
		"bgp.cpu_s":                0.013,
		"bfd.cpu_s":                0.008,
		"fluid.cpu_s":              0.029,
		"harness.cpu_s":            0.023,
		"harness.path_cpu_s":       0.011,
		"harness.trace_cpu_s":      0.012,
		"workload.cpu_s":           0.013,
		"pathtrace.cpu_s":          0.014,
		"chaos.cpu_s":              0.015,
		"metrics.cpu_s":            0.016,
		"other.cpu_s":              0.022,
		"runtime.cpu_s":            0.018,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected %s = %v", k, got[k])
		}
	}
	if r := splitProfile(p, map[string]string{"phase": "replay"}); r["simnet.heap_cpu_s"] != 0.1 || len(r) != 2 {
		t.Errorf("replay split = %v, want only the 100 ms heapPop sample", r)
	}
}

// BENCHMARK.json names exactly the per-layer metrics the traced run
// reports, with the same units.
func TestBenchmarkFileListsPerLayerMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range b.Workloads {
		mustWorkload(t, w.Name)
	}
}

// syntheticProfile encodes a gzipped CPU profile with one sample per entry
// of stacks, each a ";"-separated list of functions, leaf first; sample i
// gets the CPU milliseconds and phase label that at(i) returns.
func syntheticProfile(t *testing.T, stacks []string, at func(i int) (int64, string)) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "phase"}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var msg []byte
	msg = appendMsg(msg, 1, appendVarint(appendVarint(nil, 1, intern("samples")), 2, intern("count")))
	msg = appendMsg(msg, 1, appendVarint(appendVarint(nil, 1, intern("cpu")), 2, intern("nanoseconds")))
	ids := map[string]uint64{} // one function and one location per name
	for i, stack := range stacks {
		ms, phase := at(i)
		var sample []byte
		for _, fn := range strings.Split(stack, ";") {
			id, ok := ids[fn]
			if !ok {
				id = uint64(len(ids) + 1)
				ids[fn] = id
				msg = appendMsg(msg, 5, appendVarint(appendVarint(nil, 1, id), 2, intern(fn)))
				msg = appendMsg(msg, 4, appendMsg(appendVarint(nil, 1, id), 4, appendVarint(nil, 1, id)))
			}
			sample = appendVarint(sample, 1, id) // unpacked location ids
		}
		var packed []byte
		packed = binary.AppendUvarint(packed, 1)
		packed = binary.AppendUvarint(packed, uint64(ms*1e6))
		sample = appendMsg(sample, 2, packed)
		sample = appendMsg(sample, 3, appendVarint(appendVarint(nil, 1, intern("phase")), 2, intern(phase)))
		msg = appendMsg(msg, 2, sample)
	}
	for _, s := range strs {
		msg = appendMsg(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func appendVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func appendMsg(b []byte, field int, m []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(m)))
	return append(b, m...)
}
