package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// perLayer lists every per-layer metric of the traced run, with its unit.
// A metric whose layer does not run on a workload reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"simnet.events", "count"},
	{"simnet.cpu_s", "s"},
	{"simnet.heap_cpu_s", "s"},
	{"simnet.ns_per_event", "ns"},
	{"simnet.frames_tx", "count"},
	{"simnet.frames_lost", "count"},
	{"simnet.frames_corrupted", "count"},
	{"simnet.queue_drops", "count"},
	{"framepool.gets", "count"},
	{"framepool.reuse_ratio", "ratio"},
	{"ipstack.cpu_s", "s"},
	{"ipstack.checksum_cpu_s", "s"},
	{"ipstack.fib_lookup_cpu_s", "s"},
	{"ipstack.frames_rx", "count"},
	{"ipstack.ns_per_frame", "ns"},
	{"mrmtp.cpu_s", "s"},
	{"mrmtp.hellos_sent", "count"},
	{"mrmtp.updates_sent", "count"},
	{"mrmtp.data_forwarded", "count"},
	{"mrmtp.delivery_ratio", "ratio"},
	{"mrmtp.ns_per_frame", "ns"},
	{"bgp.cpu_s", "s"},
	{"bfd.cpu_s", "s"},
	{"bgp.control_msgs", "count"},
	{"fluid.cpu_s", "s"},
	{"fluid.flows", "count"},
	{"fluid.peak_concurrent", "count"},
	{"harness.cpu_s", "s"},
	{"harness.build_s", "s"},
	{"harness.warmup_s", "s"},
	{"harness.path_cpu_s", "s"},
	{"harness.trace_cpu_s", "s"},
	{"workload.cpu_s", "s"},
	{"workload.packets_sent", "count"},
	{"workload.retransmits", "count"},
	{"workload.goodput_ratio", "ratio"},
	{"pathtrace.cpu_s", "s"},
	{"pathtrace.probes_sent", "count"},
	{"pathtrace.reply_ratio", "ratio"},
	{"chaos.cpu_s", "s"},
	{"chaos.fault_actions", "count"},
	{"metrics.cpu_s", "s"},
	{"other.cpu_s", "s"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// replaySeconds is the least host time the traced run spends replaying:
// rounds of replays repeat until it is reached, so the CPU profile holds
// enough samples of them.
const replaySeconds = 1.0

// runReplays replays the workload's replayable trials against the records
// of pass, in rounds, and returns the fabric counters and per-handler
// statistics of one round, the number of rounds, and every replay that
// failed or did not match.
func runReplays(w workloadDef, o options, tr *tracer, pass passResult) (map[string]float64, map[string]*handlerStat, int, []string) {
	counts := map[string]float64{}
	d := &replayer{tr: tr, handlers: map[string]*handlerStat{}}
	if w.replays == nil {
		return counts, d.handlers, 0, nil
	}
	records := map[string]any{}
	for _, oc := range pass.outs {
		records[oc.name] = oc.record
	}
	var problems []string
	rounds := 0
	for start := time.Now(); rounds == 0 || time.Since(start).Seconds() < replaySeconds; rounds++ {
		for _, r := range w.replays(o.seed, o.cfg) {
			want, ok := records[r.trial]
			if !ok {
				problems = append(problems, "replay of unknown trial "+r.trial)
				continue
			}
			tr.phase("replay", func() {
				f, err := r.run(d, want)
				if err != nil {
					problems = append(problems, "replay "+r.trial+": "+err.Error())
				}
				if f != nil {
					for k, v := range fabricCounts(f) {
						counts[k] += v
					}
				}
			})
		}
		if len(problems) > 0 {
			break
		}
	}
	for k := range counts {
		counts[k] /= float64(rounds)
	}
	return counts, d.handlers, rounds, dedupe(problems)
}

// traceInputs is everything the per-layer metrics are computed from.
type traceInputs struct {
	profile          *profile
	untraced, traced []passResult
	runtime          runtimeSample      // summed over the traced passes
	replayCounts     map[string]float64 // per round
	handlers         map[string]*handlerStat
	replayRounds     int
	setup            setupTimes
}

// layerMetrics computes the per-layer metrics. CPU times, runtime figures
// and result counters are per pass (traced passes); fabric counters and
// per-event/per-frame costs come from the replays.
func layerMetrics(in traceInputs) map[string]float64 {
	m := map[string]float64{}
	for _, pm := range perLayer {
		m[pm.name] = 0
	}
	n := float64(len(in.traced))
	for k, v := range splitProfile(in.profile, map[string]string{"phase": "pass"}) {
		if _, ok := m[k]; ok {
			m[k] = v / n
		}
	}
	// Result counters are identical in every pass; take the last.
	last := in.traced[len(in.traced)-1]
	for _, oc := range last.outs {
		for k, v := range oc.counts {
			if _, ok := m[k]; ok {
				m[k] += v
			}
		}
	}
	var probes, replies float64
	for _, oc := range last.outs {
		probes += oc.counts["pathtrace.probes_sent"]
		replies += oc.counts["pathtrace.replies_received"]
	}
	m["pathtrace.reply_ratio"] = ratio(replies, probes)
	m["workload.goodput_ratio"] = ratio(m["workload.packets_sent"]-m["workload.retransmits"], m["workload.packets_sent"])

	rc := in.replayCounts
	for _, k := range []string{"simnet.events", "simnet.frames_tx", "simnet.frames_lost", "simnet.frames_corrupted",
		"simnet.queue_drops", "framepool.gets", "mrmtp.hellos_sent", "mrmtp.updates_sent", "mrmtp.data_forwarded"} {
		m[k] = rc[k]
	}
	m["framepool.reuse_ratio"] = ratio(rc["framepool.returned"], rc["framepool.gets"])
	useful := rc["mrmtp.data_forwarded"] + rc["mrmtp.data_delivered"]
	m["mrmtp.delivery_ratio"] = ratio(useful, useful+rc["mrmtp.data_dropped"])
	replayCPU := splitProfile(in.profile, map[string]string{"phase": "replay"})
	m["simnet.ns_per_event"] = ratio(replayCPU["simnet.cpu_s"]*1e9, rc["simnet.events"]*float64(in.replayRounds))
	var stackNS, stackFrames float64
	for key, st := range in.handlers {
		switch {
		case strings.HasPrefix(key, "*ipstack.Stack@"):
			stackNS += float64(st.Nanos)
			stackFrames += float64(st.Frames)
		case strings.HasPrefix(key, "*mrmtp.Router@"):
			m["mrmtp.ns_per_frame"] = ratio(float64(st.Nanos), float64(st.Frames))
		}
	}
	m["ipstack.frames_rx"] = ratio(stackFrames, float64(in.replayRounds))
	m["ipstack.ns_per_frame"] = ratio(stackNS, stackFrames)

	m["runtime.gc_cpu_s"] = in.runtime.gcCPU / n
	m["runtime.alloc_mb"] = in.runtime.allocBytes / n / (1 << 20)
	m["runtime.gc_cycles"] = in.runtime.gcCycles / n
	m["harness.build_s"] = in.setup.build
	m["harness.warmup_s"] = in.setup.warmup
	m["bench.trace_overhead_frac"] = ratio(medianHost(in.traced), medianHost(in.untraced)) - 1
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianHost(passes []passResult) float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, p.host.Seconds())
	}
	return median(xs)
}

// handlerTable renders the per-handler statistics of the replays.
func handlerTable(hs map[string]*handlerStat) string {
	keys := make([]string, 0, len(hs))
	for k := range hs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		st := hs[k]
		fmt.Fprintf(&b, "handler %-24s frames=%d port_downs=%d ns_per_frame=%.1f\n",
			k, st.Frames, st.PortDowns, ratio(float64(st.Nanos), float64(st.Frames)))
	}
	return b.String()
}
