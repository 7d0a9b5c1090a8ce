package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// The harness entry points build their fabrics internally, so the
// fabric-level counters (events, link and frame-pool counters, router
// counters, per-handler time) of their trials are out of reach. The traced
// run therefore replays trials of the pass on fabrics the benchmark builds
// itself, step by step through the harness's public calls, with a timing
// wrapper on every node's handler. Each replay must reproduce the result of
// the harness call it mirrors: that proves the replay is the same
// simulation and that the wrapper leaves it unchanged.

// replay re-drives the pass trial named trial. want is that trial's record.
type replay struct {
	trial string
	run   func(d *replayer, want any) (*harness.Fabric, error)
}

// replayer makes the replays' public calls, each inside a span, and wraps the
// handlers of every fabric it builds.
type replayer struct {
	tr       *tracer
	handlers map[string]*handlerStat
}

func (d *replayer) build(o harness.Options) (f *harness.Fabric, err error) {
	d.tr.span("Build", func() { f, err = harness.Build(o) })
	if err == nil {
		wrapHandlers(f, d.handlers)
	}
	return f, err
}

func (d *replayer) warmUp(f *harness.Fabric) (err error) {
	d.tr.span("WarmUp", func() { err = f.WarmUp(harness.WarmupTime) })
	return err
}

func (d *replayer) fail(f *harness.Fabric, tc topology.FailureCase) (at time.Duration, err error) {
	d.tr.span("Fail", func() { at, err = f.Fail(tc) })
	return at, err
}

func (d *replayer) runFor(f *harness.Fabric, dur time.Duration) {
	d.tr.span("RunFor", func() { f.Sim.RunFor(dur) })
}

// handlerStat counts and times the calls into one kind of handler.
type handlerStat struct {
	Frames    uint64 `json:"frames"`
	PortDowns uint64 `json:"port_downs"`
	Nanos     int64  `json:"ns"`
}

// timedHandler is a pass-through simnet.Handler that counts and times
// HandleFrame and PortDown.
type timedHandler struct {
	simnet.Handler
	st *handlerStat
}

func (h timedHandler) HandleFrame(p *simnet.Port, frame []byte) {
	start := time.Now()
	h.Handler.HandleFrame(p, frame)
	h.st.Nanos += time.Since(start).Nanoseconds()
	h.st.Frames++
}

func (h timedHandler) PortDown(p *simnet.Port) {
	start := time.Now()
	h.Handler.PortDown(p)
	h.st.Nanos += time.Since(start).Nanoseconds()
	h.st.PortDowns++
}

// wrapHandlers installs a timedHandler on every node of f, keyed by handler
// type and by whether the node is a server or a router, so the servers'
// ipstack.Stack is told apart from the routers'.
func wrapHandlers(f *harness.Fabric, stats map[string]*handlerStat) {
	for _, n := range f.Sim.Nodes() {
		if n.Handler == nil {
			continue
		}
		role := "router"
		if n.Meta["tier"] == topology.TierServer.String() {
			role = "server"
		}
		key := fmt.Sprintf("%T@%s", n.Handler, role)
		if stats[key] == nil {
			stats[key] = &handlerStat{}
		}
		n.Handler = timedHandler{Handler: n.Handler, st: stats[key]}
	}
}

// fabricCounts reads the fabric-level counters of a finished replay.
func fabricCounts(f *harness.Fabric) map[string]float64 {
	c := map[string]float64{"simnet.events": float64(f.Sim.Events())}
	for _, n := range f.Sim.Nodes() {
		for _, p := range n.Ports[1:] {
			c["simnet.frames_tx"] += float64(p.Counters.TxFrames)
		}
	}
	for _, l := range f.Sim.Links() {
		c["simnet.frames_lost"] += float64(l.Lost())
		c["simnet.frames_corrupted"] += float64(l.Corrupted())
		c["simnet.queue_drops"] += float64(l.Overflowed())
	}
	fs := f.Sim.FrameStats()
	c["framepool.gets"] = float64(fs.Recycled + fs.Fresh)
	c["framepool.returned"] = float64(fs.Returned)
	for _, r := range f.Routers {
		c["mrmtp.hellos_sent"] += float64(r.Stats.HellosSent)
		c["mrmtp.updates_sent"] += float64(r.Stats.UpdatesSent)
		c["mrmtp.data_forwarded"] += float64(r.Stats.DataForwarded)
		c["mrmtp.data_delivered"] += float64(r.Stats.DataDelivered)
		c["mrmtp.data_dropped"] += float64(r.Stats.DataDropped)
	}
	return c
}

// paper-grid replays every RunFailure trial of the pass.
func paperGridReplays(seed int64, _ config) []replay {
	var out []replay
	for _, o := range paperFabrics(seed) {
		o := o
		for _, tc := range topology.AllFailureCases() {
			tc := tc
			out = append(out, replay{
				trial: fmt.Sprintf("RunFailure/%s/%v", label(o), tc),
				run: func(d *replayer, want any) (*harness.Fabric, error) {
					return replayFailure(d, o, tc, want.(harness.FailureResult))
				},
			})
		}
	}
	return out
}

// replayFailure mirrors harness.RunFailure.
func replayFailure(d *replayer, o harness.Options, tc topology.FailureCase, want harness.FailureResult) (*harness.Fabric, error) {
	f, err := d.build(o)
	if err != nil {
		return nil, err
	}
	if err := d.warmUp(f); err != nil {
		return f, err
	}
	d.runFor(f, time.Duration(f.Sim.Rand().Int63n(int64(time.Second))))
	f.Log.Reset()
	failAt, err := d.fail(f, tc)
	if err != nil {
		return f, err
	}
	d.runFor(f, harness.SettleTime)
	a := f.Log.Analyze(failAt)
	got := [4]int64{int64(a.Convergence), int64(a.BlastRadius), int64(a.ControlBytes), int64(a.ControlMessages)}
	exp := [4]int64{int64(want.Convergence), int64(want.BlastRadius), int64(want.ControlBytes), int64(want.ControlMsgs)}
	if got != exp {
		return f, fmt.Errorf("replay differs from RunFailure: (convergence, blast, bytes, msgs) %v, want %v", got, exp)
	}
	return f, nil
}

// packet-fct replays the first trial of every cell of the pass.
func packetFCTReplays(seed int64, cfg config) []replay {
	var out []replay
	for _, o := range packetFabrics(seed) {
		o := o
		for _, mid := range []bool{false, true} {
			w := packetWorkload(mid, cfg)
			out = append(out, replay{
				trial: workloadTrial(o, w).name,
				run: func(d *replayer, want any) (*harness.Fabric, error) {
					return replayPacketWorkload(d, o, w, want.(harness.WorkloadResult))
				},
			})
		}
	}
	return out
}

// replayPacketWorkload mirrors harness.RunWorkload on the packet engine,
// including the telemetry sampler and load meter, whose timers take part in
// the event order.
func replayPacketWorkload(d *replayer, o harness.Options, w harness.WorkloadConfig, want harness.WorkloadResult) (*harness.Fabric, error) {
	f, err := d.build(o)
	if err != nil {
		return nil, err
	}
	if err := d.warmUp(f); err != nil {
		return f, err
	}
	d.runFor(f, time.Duration(f.Sim.Rand().Int63n(int64(time.Second))))
	for _, link := range f.Sim.Links() {
		link.SetBandwidth(w.LinkBps, w.LinkQueue)
	}
	engine, err := workload.New(f.Sim, f.WorkloadHosts(), workload.Config{
		Pattern:        w.Pattern,
		Sizes:          w.Sizes,
		Flows:          w.Flows,
		MeanArrival:    w.MeanArrival,
		PacketSize:     w.PacketSize,
		PacketInterval: w.PacketInterval,
		DstPort:        49000,
		RTO:            100 * time.Millisecond,
		MaxRounds:      60,
		Seed:           o.Seed,
		Mode:           w.Engine,
	})
	if err != nil {
		return f, err
	}
	sampler := workload.NewSampler(f.Sim, w.SampleInterval)
	for _, link := range f.Sim.Links() {
		sampler.Watch(link)
	}
	workload.NewLoadMeter(f.Sim, f.UplinkGroups())
	engine.Start()
	sampler.Start()
	start := f.Sim.Now()
	if w.MidFailure {
		d.runFor(f, w.FailAfter)
		if _, err := d.fail(f, w.FailCase); err != nil {
			return f, err
		}
	}
	for !engine.Done() && f.Sim.Now()-start < w.MaxRun {
		d.runFor(f, 50*time.Millisecond)
	}
	sampler.Stop()
	if got := engine.Report(nil); !reflect.DeepEqual(got, want.Report) {
		return f, fmt.Errorf("replay differs from RunWorkload: completed %d/%d, %d packets; want %d/%d, %d packets",
			got.Completed, got.Flows, got.PacketsSent, want.Report.Completed, want.Report.Flows, want.Report.PacketsSent)
	}
	return f, nil
}

// fault-campaign replays every RunChaos trial of the pass. The trace
// catalog's prober fleet is internal to the harness, so RunTrace trials
// have no replay.
func faultCampaignReplays(seed int64, _ config) []replay {
	var out []replay
	for _, o := range campaignFabrics(seed) {
		o := o
		for _, spec := range harness.ChaosCatalog() {
			spec := spec
			out = append(out, replay{
				trial: fmt.Sprintf("RunChaos/%s/%s", label(o), spec.Name),
				run: func(d *replayer, want any) (*harness.Fabric, error) {
					return replayChaos(d, o, spec, want.(harness.ChaosResult))
				},
			})
		}
	}
	return out
}

// replayChaos mirrors harness.RunChaos up to its probe-flow accounting.
func replayChaos(d *replayer, o harness.Options, spec chaos.Spec, want harness.ChaosResult) (*harness.Fabric, error) {
	f, err := d.build(o)
	if err != nil {
		return nil, err
	}
	srcStack, srcDev, err := f.ServerStack(11, 1)
	if err != nil {
		return f, err
	}
	dstStack, dstDev, err := f.ServerStack(14, 1)
	if err != nil {
		return f, err
	}
	cfg := trafficgen.DefaultConfig(srcDev.IP, dstDev.IP)
	cfg.SrcPort = harness.PickFlowPort(f, cfg)
	sender := trafficgen.NewSender(srcStack, cfg)
	receiver := trafficgen.NewReceiver(dstStack, cfg.DstPort)
	if err := d.warmUp(f); err != nil {
		return f, err
	}
	sender.Start()
	d.runFor(f, time.Second+time.Duration(f.Sim.Rand().Int63n(int64(time.Second))))
	f.Log.Reset()
	startSeq := sender.Seq()
	inj, err := chaos.Apply(f.Sim, spec)
	if err != nil {
		return f, err
	}
	d.runFor(f, spec.Horizon()+harness.ChaosSettleTime)
	endSeq := sender.Seq()
	sender.Stop()
	d.runFor(f, time.Second)
	missing, _ := receiver.Missing(startSeq, endSeq)
	got := [3]uint64{endSeq - startSeq, missing, uint64(len(inj.Events()))}
	exp := [3]uint64{want.ProbeSent, want.ProbeLost, uint64(want.FaultActions)}
	if got != exp {
		return f, fmt.Errorf("replay differs from RunChaos: (probes sent, lost, fault actions) %v, want %v", got, exp)
	}
	return f, nil
}
