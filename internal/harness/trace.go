package harness

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/flowhash"
	"repro/internal/icmp"
	"repro/internal/ipstack"
	"repro/internal/ipv4"
	"repro/internal/mrmtp"
	"repro/internal/netaddr"
	"repro/internal/pathtrace"
	"repro/internal/topology"
)

// This file runs the observability-plane campaigns (DESIGN.md §12): a fleet
// of mtr-style probers walks every ordered leaf pair of a warm fabric at
// several ECMP flow variants, a localizer sweeps the resulting coverage
// matrix on the virtual clock, and a gray failure from the trace catalog is
// scored by time-to-localization — the virtual time from fault injection to
// the first accusation of the faulted directed link — plus the count of
// false accusals. The harness owns all topology knowledge: it predicts each
// probe's hop sequence by composing the protocols' own next-hop decisions
// (mrmtp.NextDataHop, ipstack.NextHopFor), so the coverage matrix tracks
// reroutes as they happen.

// AccusationEventKind tags localizer verdicts merged into a campaign's
// event timeline alongside the injector's fault actions.
const AccusationEventKind = chaos.Kind("accusation")

// TraceConfig parameterizes a trace campaign.
type TraceConfig struct {
	// Flows is the number of ECMP flow variants probed per ordered leaf
	// pair (each pins one source port, and so one hashed path).
	Flows int
	// Round is one prober's probe interval (every TTL is probed once per
	// round).
	Round time.Duration
	// SweepPeriod is the localizer's sweep interval.
	SweepPeriod time.Duration
	// LeadIn is how long probers run before the localizer is armed and the
	// faults are injected — long enough to fill RTT baselines (MinSent).
	LeadIn time.Duration
	// Settle extends the observation window past the campaign horizon.
	Settle time.Duration
	// HopSamplePeriod spaces the per-hop statistic samples exported to
	// trace-hops.csv.
	HopSamplePeriod time.Duration
	// CoverMemory is how long a cell's past covers stay in its blame set,
	// so a fault that already triggered rerouting is still blamed on the
	// path the lost probes actually took.
	CoverMemory time.Duration
	// Localizer carries the accusation thresholds.
	Localizer pathtrace.LocalizerConfig
}

// DefaultTraceConfig returns the campaign parameters the trace experiment
// runs with.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Flows:           4,
		Round:           50 * time.Millisecond,
		SweepPeriod:     100 * time.Millisecond,
		LeadIn:          2 * time.Second,
		Settle:          2 * time.Second,
		HopSamplePeriod: time.Second,
		CoverMemory:     time.Second,
		Localizer:       pathtrace.DefaultLocalizerConfig(),
	}
}

// TraceScenario is one catalog entry: a gray-failure campaign plus the
// directed links a correct localization may accuse.
type TraceScenario struct {
	Spec   chaos.Spec
	Accept []pathtrace.DirectedLink
}

// TraceCatalog returns the gray-failure scenarios the trace experiment
// scores, all targeting the monitored L-1-1/S-1-1/T-1 column (present in
// every standard spec). Loss rates sit well above the localizer's
// LossThreshold so the signal clears detection within a few EWMA rounds;
// horizons leave room for the persistence streak to mature before scoring
// ends.
func TraceCatalog() []TraceScenario {
	const start = chaos.Duration(500 * time.Millisecond)
	return []TraceScenario{
		{
			// Gray spine uplink: 30% loss on S-1-1 → T-1 only.
			Spec: chaos.Spec{
				Name: "trace-gray-spine",
				Faults: []chaos.Fault{{
					Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "S-1-1", Peer: "T-1"},
					Start: start, Duration: chaos.Duration(6 * time.Second), LossRate: 0.3,
				}},
			},
			Accept: []pathtrace.DirectedLink{{From: "S-1-1", To: "T-1"}},
		},
		{
			// Gray leaf uplink: the same loss one tier down.
			Spec: chaos.Spec{
				Name: "trace-gray-leaf",
				Faults: []chaos.Fault{{
					Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "L-1-1", Peer: "S-1-1"},
					Start: start, Duration: chaos.Duration(6 * time.Second), LossRate: 0.3,
				}},
			},
			Accept: []pathtrace.DirectedLink{{From: "L-1-1", To: "S-1-1"}},
		},
		{
			// Gray downlink: loss on the top spine's transmit side, hitting
			// reply paths and cross-pod down-traffic instead of the uplink
			// direction.
			Spec: chaos.Spec{
				Name: "trace-gray-down",
				Faults: []chaos.Fault{{
					Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "T-1", Peer: "S-1-1"},
					Start: start, Duration: chaos.Duration(6 * time.Second), LossRate: 0.3,
				}},
			},
			Accept: []pathtrace.DirectedLink{{From: "T-1", To: "S-1-1"}},
		},
		{
			// Corrupted and delayed frames on the leaf uplink: the latency
			// anomaly path (corruption shows as loss, the added latency as
			// RTT inflation).
			Spec: chaos.Spec{
				Name: "trace-hello-impair",
				Faults: []chaos.Fault{{
					Kind: chaos.LinkImpair, Link: chaos.LinkRef{Device: "L-1-1", Peer: "S-1-1"},
					Start: start, Duration: chaos.Duration(6 * time.Second),
					CorruptRate: 0.25, ExtraLatency: chaos.Duration(30 * time.Millisecond),
					Jitter: chaos.Duration(30 * time.Millisecond),
				}},
			},
			Accept: []pathtrace.DirectedLink{{From: "L-1-1", To: "S-1-1"}},
		},
		{
			// Silent one-way blackhole at the top tier: every S-1-1 → T-1
			// frame vanishes with no carrier alarm. (chaos.OneWay raises an
			// optics alarm, which plain BGP's fast-external-failover heals
			// in milliseconds — not a gray failure; the silent variant is
			// what tracing is for.) MR-MTP's hello asymmetry keeps S-1-1
			// hashing into the dark link for the whole fault, while BGP
			// stays dark until T-1's hold timer expires, so both protocols
			// expose a localizable window.
			Spec: chaos.Spec{
				Name: "trace-blackhole-up",
				Faults: []chaos.Fault{{
					Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "S-1-1", Peer: "T-1"},
					Start: start, Duration: chaos.Duration(6 * time.Second), LossRate: 1.0,
				}},
			},
			Accept: []pathtrace.DirectedLink{{From: "S-1-1", To: "T-1"}},
		},
	}
}

// mrmtpProbeTransport injects probes at an MR-MTP ToR: the hop limit rides
// the encapsulation TTL.
type mrmtpProbeTransport struct{ r *mrmtp.Router }

func (t mrmtpProbeTransport) SendProbe(ipWire []byte, hopLimit int) {
	t.r.InjectData(ipWire, byte(hopLimit))
}

// bgpProbeTransport injects probes at a BGP leaf: the hop limit is already
// the probe's IP TTL, so the raw send carries it as-is.
type bgpProbeTransport struct{ s *ipstack.Stack }

func (t bgpProbeTransport) SendProbe(ipWire []byte, _ int) {
	t.s.SendIPRaw(ipWire)
}

// traceVantage binds one prober to its topology endpoints.
type traceVantage struct {
	src, dst *topology.Device
}

// tracePathHop is one predicted hop: the device a TTL-limited probe expires
// at, and the address its reply will carry.
type tracePathHop struct {
	dev  *topology.Device
	addr netaddr.IPv4
}

// stampedCover is one sweep's predicted cover for a cell.
type stampedCover struct {
	at    time.Duration
	links []pathtrace.DirectedLink
}

// TraceHopSample is one exported per-hop statistics row.
type TraceHopSample struct {
	At time.Duration
	pathtrace.HopSnapshot
}

// traceRun owns one campaign's prober fleet, coverage history, and
// localizer.
type traceRun struct {
	f          *Fabric
	cfg        TraceConfig
	tracer     *pathtrace.Tracer
	loc        *pathtrace.Localizer
	vants      []traceVantage // by prober ID
	history    map[int][]stampedCover
	samples    []TraceHopSample
	lastSample time.Duration
}

// newTraceRun registers the prober fleet on a built (not yet warm) fabric:
// every ordered leaf pair at cfg.Flows ECMP variants, probing from the
// source ToR's gateway address with a TTL budget matching the pair's hop
// distance (2 intra-pod, 4 cross-pod).
func newTraceRun(f *Fabric, cfg TraceConfig) *traceRun {
	run := &traceRun{
		f:       f,
		cfg:     cfg,
		tracer:  &pathtrace.Tracer{},
		loc:     pathtrace.NewLocalizer(cfg.Localizer),
		history: make(map[int][]stampedCover),
	}
	for _, src := range f.Topo.Leaves {
		d := f.dev(src)
		var tr pathtrace.Transport
		if f.Opts.Protocol == ProtoMRMTP {
			tr = mrmtpProbeTransport{d.router}
		} else {
			tr = bgpProbeTransport{d.stack}
		}
		for _, dst := range f.Topo.Leaves {
			if dst == src {
				continue
			}
			maxTTL := 4
			if dst.Pod == src.Pod {
				maxTTL = 2
			}
			for flow := 0; flow < cfg.Flows; flow++ {
				run.tracer.AddProber(pathtrace.ProberConfig{
					Src:    topology.LeafGatewayIP(src),
					Dst:    topology.LeafGatewayIP(dst),
					Flow:   flow,
					MaxTTL: maxTTL,
				}, d.node.Sim, tr)
				run.vants = append(run.vants, traceVantage{src: src, dst: dst})
			}
		}
		// Replies arrive as ICMP addressed to the vantage: the ToR's
		// gateway in both planes.
		dispatch := func(from netaddr.IPv4, m icmp.Message) { run.tracer.Dispatch(from, m) }
		if f.Opts.Protocol == ProtoMRMTP {
			d.router.ListenICMP(dispatch)
		} else {
			d.stack.ListenICMP(dispatch)
		}
	}
	return run
}

// start schedules every prober's self-rearming tick on its own node's
// event queue (shard-local under the partitioned engine, like trafficgen),
// phase-staggered across one round so the fleet does not fire in lockstep.
func (run *traceRun) start() {
	probers := run.tracer.Probers()
	n := len(probers)
	for i, p := range probers {
		sim := run.f.dev(run.vants[i].src).node.Sim
		p := p
		var tick func()
		tick = func() {
			p.Tick()
			sim.Schedule(run.cfg.Round, tick)
		}
		offset := run.cfg.Round * time.Duration(i) / time.Duration(n)
		sim.Schedule(offset, tick)
	}
}

// probeKey is the fabric flow key of prober i's probes.
func (run *traceRun) probeKey(i int) flowhash.Key {
	p := run.tracer.Probers()[i]
	return flowhash.Key{
		Src: p.Cfg.Src, Dst: p.Cfg.Dst, Proto: ipv4.ProtoUDP,
		SrcPort: p.SrcPort(), DstPort: pathtrace.TracePort,
	}
}

// nextHop replicates one device's forwarding decision for a flow — the
// shared nextHopPort helper mapped back onto the topology.
func (run *traceRun) nextHop(dev *topology.Device, dstRoot byte, dstIP netaddr.IPv4, key flowhash.Key) (next *topology.Device, ingressIP netaddr.IPv4, ok bool) {
	port, ok := run.f.nextHopPort(dev, dstRoot, dstIP, key)
	if !ok {
		return nil, netaddr.IPv4{}, false
	}
	tp := dev.Ports[port]
	if tp == nil || tp.Peer == nil || tp.Peer.Device.Tier == topology.TierServer {
		return nil, netaddr.IPv4{}, false
	}
	return tp.Peer.Device, tp.Peer.IP, true
}

// hopAddr is the address the probe reply from this hop will carry:
// intermediate MR-MTP devices answer from their trace Identity, BGP routers
// from the ingress interface, and the destination ToR from its gateway in
// both planes.
func (run *traceRun) hopAddr(v traceVantage, dev *topology.Device, ingressIP netaddr.IPv4) netaddr.IPv4 {
	if dev == v.dst {
		return topology.LeafGatewayIP(dev)
	}
	if run.f.Opts.Protocol == ProtoMRMTP {
		return routerID(dev)
	}
	return ingressIP
}

// forwardWalk predicts prober i's current forward path up to maxTTL hops:
// the hop sequence (device plus reply address) and the directed links
// crossed. The walk truncates where the fabric would drop the probe.
func (run *traceRun) forwardWalk(i, maxTTL int) (hops []tracePathHop, links []pathtrace.DirectedLink) {
	v := run.vants[i]
	key := run.probeKey(i)
	dstRoot := byte(v.dst.VID)
	dev := v.src
	for step := 0; step < maxTTL; step++ {
		next, inIP, ok := run.nextHop(dev, dstRoot, key.Dst, key)
		if !ok {
			return hops, links
		}
		links = append(links, pathtrace.DirectedLink{From: dev.Name, To: next.Name})
		hops = append(hops, tracePathHop{dev: next, addr: run.hopAddr(v, next, inIP)})
		dev = next
		if dev == v.dst {
			break
		}
	}
	return hops, links
}

// replyWalk predicts the links a reply from the given hop crosses on its
// way back to prober i's vantage. The reply is a fresh ICMP flow — hashed
// on (replier address, vantage address, ICMP) — so its path is independent
// of the probe's.
func (run *traceRun) replyWalk(i int, hop tracePathHop) []pathtrace.DirectedLink {
	v := run.vants[i]
	vantage := topology.LeafGatewayIP(v.src)
	key := flowhash.Key{Src: hop.addr, Dst: vantage, Proto: ipv4.ProtoICMP}
	srcRoot := byte(v.src.VID)
	dev := hop.dev
	var links []pathtrace.DirectedLink
	for steps := 0; dev != v.src && steps < pathtrace.MaxTTL; steps++ {
		next, _, ok := run.nextHop(dev, srcRoot, vantage, key)
		if !ok {
			return links
		}
		links = append(links, pathtrace.DirectedLink{From: dev.Name, To: next.Name})
		dev = next
	}
	return links
}

// coverFor assembles one cell's current cover from the prober's forward
// walk: the forward links up to the probed TTL plus the reply path from
// that hop. A probe whose TTL exceeds a walk that reached the destination
// clamps there (the destination answers before checking TTL); one whose
// walk truncated earlier covers only the forward prefix — it is dropped,
// no reply exists.
func (run *traceRun) coverFor(i, ttl int, hops []tracePathHop, links []pathtrace.DirectedLink) []pathtrace.DirectedLink {
	n := ttl
	if n > len(hops) {
		if len(hops) == 0 || hops[len(hops)-1].dev != run.vants[i].dst {
			return append([]pathtrace.DirectedLink(nil), links...)
		}
		n = len(hops)
	}
	cover := append([]pathtrace.DirectedLink(nil), links[:n]...)
	return append(cover, run.replyWalk(i, hops[n-1])...)
}

// updateHistory folds a cell's current cover into its rolling cover
// history (pruned to CoverMemory) and returns the union — the cell's blame
// set — in first-seen order.
func (run *traceRun) updateHistory(key int, now time.Duration, cover []pathtrace.DirectedLink) []pathtrace.DirectedLink {
	hist := append(run.history[key], stampedCover{at: now, links: cover})
	cut := 0
	for cut < len(hist)-1 && now-hist[cut].at > run.cfg.CoverMemory {
		cut++
	}
	hist = hist[cut:]
	run.history[key] = hist
	var blame []pathtrace.DirectedLink
	seen := make(map[pathtrace.DirectedLink]bool)
	for _, h := range hist {
		for _, l := range h.links {
			if !seen[l] {
				seen[l] = true
				blame = append(blame, l)
			}
		}
	}
	return blame
}

// collectCells builds the coverage matrix: every prober's per-TTL rollups
// joined with the predicted covers, in deterministic prober-major order.
// It runs on the driver clock (coordinator context under the partitioned
// engine, where every shard is quiesced), so the cross-shard reads of
// router and prober state are safe.
func (run *traceRun) collectCells(now time.Duration) []pathtrace.Cell {
	var cells []pathtrace.Cell
	for i, p := range run.tracer.Probers() {
		hops, links := run.forwardWalk(i, p.Cfg.MaxTTL)
		for _, s := range p.Snapshot() {
			cover := run.coverFor(i, s.TTL, hops, links)
			blame := run.updateHistory(s.Prober<<5|s.TTL, now, cover)
			cells = append(cells, pathtrace.Cell{HopSnapshot: s, Cover: cover, Blame: blame})
		}
	}
	return cells
}

// arm baselines the localizer on the healthy fabric and takes the first
// hop-statistics sample.
func (run *traceRun) arm() {
	now := run.f.Sim.Now()
	cells := run.collectCells(now)
	run.loc.Arm(now, cells)
	run.sample(now, cells)
}

// sweep is one localization pass: rebuild the coverage matrix, let the
// localizer judge it, and log any accusation as a metrics event.
func (run *traceRun) sweep() {
	now := run.f.Sim.Now()
	cells := run.collectCells(now)
	for _, a := range run.loc.Sweep(now, cells) {
		run.f.Log.Accusation(a.At, "localizer", a.Link.String())
	}
	if now-run.lastSample >= run.cfg.HopSamplePeriod {
		run.sample(now, cells)
	}
}

func (run *traceRun) sample(now time.Duration, cells []pathtrace.Cell) {
	run.lastSample = now
	for i := range cells {
		run.samples = append(run.samples, TraceHopSample{At: now, HopSnapshot: cells[i].HopSnapshot})
	}
}

// TraceAccusation is one localizer verdict scored against the scenario.
type TraceAccusation struct {
	At      time.Duration
	Link    string
	Cells   int
	Ratio   float64
	Latency bool
	Correct bool
}

// TraceResult is one campaign trial.
type TraceResult struct {
	Protocol Protocol
	Pods     int
	Scenario string

	Probers int
	Cells   int

	// Probe-fleet totals over the whole run.
	ProbesSent      uint64
	ProbesLost      uint64
	RepliesReceived uint64
	// TraceReplies counts time-exceeded answers from MR-MTP fabric
	// devices (zero in the BGP plane, where the IP stack answers).
	TraceReplies uint64

	// InjectedAt is the virtual time of the first fault action.
	InjectedAt time.Duration

	Accusations []TraceAccusation
	// Localized reports whether an accepted link was accused;
	// TimeToLocalize is then the delay from InjectedAt to that verdict.
	Localized      bool
	TimeToLocalize time.Duration
	FalseAccusals  int

	// Samples is the per-hop statistics export (trace-hops.csv).
	Samples []TraceHopSample
	// Events merges the injector log with accusation pseudo-events, in
	// virtual-time order.
	Events []chaos.Event
}

// RunTrace executes one trace campaign trial with the default config.
func RunTrace(opts Options, sc TraceScenario) (TraceResult, error) {
	return RunTraceCfg(opts, sc, DefaultTraceConfig())
}

// RunTraceCfg executes one trace campaign trial: build, register the
// prober fleet, warm up, probe through a lead-in, arm the localizer,
// inject the scenario, sweep to the horizon plus settle, and score.
func RunTraceCfg(opts Options, sc TraceScenario, cfg TraceConfig) (TraceResult, error) {
	if opts.MultiTier != nil {
		return TraceResult{}, fmt.Errorf("harness: trace campaigns support the standard three-tier specs only")
	}
	f, err := Build(opts)
	if err != nil {
		return TraceResult{}, err
	}
	run := newTraceRun(f, cfg)
	if err := f.WarmUp(WarmupTime); err != nil {
		return TraceResult{}, err
	}
	run.start()
	f.Sim.RunFor(cfg.LeadIn)
	run.arm()
	var sweep func()
	sweep = func() {
		run.sweep()
		f.Sim.Schedule(cfg.SweepPeriod, sweep)
	}
	f.Sim.Schedule(cfg.SweepPeriod, sweep)

	applyAt := f.Sim.Now()
	inj, err := chaos.Apply(f.Sim, sc.Spec)
	if err != nil {
		return TraceResult{}, err
	}
	f.Sim.RunFor(sc.Spec.Horizon() + cfg.Settle)

	firstStart := sc.Spec.Faults[0].Start.D()
	for _, fault := range sc.Spec.Faults[1:] {
		if s := fault.Start.D(); s < firstStart {
			firstStart = s
		}
	}
	res := TraceResult{
		Protocol:   opts.Protocol,
		Pods:       opts.Spec.Pods,
		Scenario:   sc.Spec.Name,
		Probers:    len(run.tracer.Probers()),
		InjectedAt: applyAt + firstStart,
		Samples:    run.samples,
	}
	snaps := run.tracer.Snapshot()
	res.Cells = len(snaps)
	for _, s := range snaps {
		res.ProbesSent += s.Sent
		res.ProbesLost += s.Lost
		res.RepliesReceived += s.Received
	}
	for _, d := range f.Topo.Routers() {
		if r := f.Routers[d.Name]; r != nil {
			res.TraceReplies += r.Stats.TraceReplies
		}
	}
	accept := make(map[string]bool, len(sc.Accept))
	for _, l := range sc.Accept {
		accept[l.String()] = true
	}
	for _, a := range run.loc.Accusations() {
		ta := TraceAccusation{
			At: a.At, Link: a.Link.String(), Cells: a.Cells,
			Ratio: a.Ratio, Latency: a.Latency, Correct: accept[a.Link.String()],
		}
		if ta.Correct {
			if !res.Localized {
				res.Localized = true
				res.TimeToLocalize = ta.At - res.InjectedAt
			}
		} else {
			res.FalseAccusals++
		}
		res.Accusations = append(res.Accusations, ta)
	}
	res.Events = mergeTraceEvents(inj.Events(), res.Accusations)
	return res, nil
}

// mergeTraceEvents interleaves the injector log with accusation
// pseudo-events by virtual time (fault actions first on ties, matching
// their scheduling precedence).
func mergeTraceEvents(faults []chaos.Event, accs []TraceAccusation) []chaos.Event {
	out := make([]chaos.Event, 0, len(faults)+len(accs))
	j := 0
	for _, ev := range faults {
		for j < len(accs) && accs[j].At < ev.At {
			out = append(out, accusationEvent(accs[j]))
			j++
		}
		out = append(out, ev)
	}
	for ; j < len(accs); j++ {
		out = append(out, accusationEvent(accs[j]))
	}
	return out
}

func accusationEvent(a TraceAccusation) chaos.Event {
	detail := "false"
	if a.Correct {
		detail = "correct"
	}
	return chaos.Event{
		At: a.At, Kind: AccusationEventKind, Action: "accuse",
		Target: a.Link, Detail: detail,
	}
}

// TraceSummary aggregates trials of one (protocol, pods, scenario) cell.
// It is a flat comparable struct on purpose, like ChaosSummary: the
// pooling determinism test compares summaries with ==.
type TraceSummary struct {
	Protocol Protocol
	Pods     int
	Scenario string
	Trials   int

	Probers int // per trial (identical across trials by construction)

	// Localized counts trials whose accepted link was accused;
	// FalseAccusals sums wrong verdicts across all trials.
	Localized     int
	FalseAccusals int

	// Time-to-localization over the localized trials, in milliseconds.
	TTLocMsMean float64
	TTLocMsMax  float64

	AccusationsMean   float64
	ProbeLossRateMean float64
	TraceRepliesMean  float64
}

// SummarizeTrace pools per-trial results in trial order, so parallel and
// sequential runs summarize bit-identically.
func SummarizeTrace(rs []TraceResult) TraceSummary {
	if len(rs) == 0 {
		return TraceSummary{}
	}
	s := TraceSummary{
		Protocol: rs[0].Protocol,
		Pods:     rs[0].Pods,
		Scenario: rs[0].Scenario,
		Trials:   len(rs),
		Probers:  rs[0].Probers,
	}
	n := float64(len(rs))
	var ttlSum float64
	for _, r := range rs {
		if r.Localized {
			s.Localized++
			ms := float64(r.TimeToLocalize) / float64(time.Millisecond)
			ttlSum += ms
			if ms > s.TTLocMsMax {
				s.TTLocMsMax = ms
			}
		}
		s.FalseAccusals += r.FalseAccusals
		s.AccusationsMean += float64(len(r.Accusations)) / n
		if r.ProbesSent > 0 {
			s.ProbeLossRateMean += float64(r.ProbesLost) / float64(r.ProbesSent) / n
		}
		s.TraceRepliesMean += float64(r.TraceReplies) / n
	}
	if s.Localized > 0 {
		s.TTLocMsMean = ttlSum / float64(s.Localized)
	}
	return s
}

// RunTraceTrials fans n seeds of one campaign cell over the trial pool and
// pools the results, returning per-trial results in trial order.
func RunTraceTrials(opts Options, sc TraceScenario, n int) (TraceSummary, []TraceResult, error) {
	rs, err := runTrials(opts, n, func(o Options) (TraceResult, error) {
		return RunTrace(o, sc)
	})
	if err != nil {
		return TraceSummary{}, nil, err
	}
	return SummarizeTrace(rs), rs, nil
}
