// Package workload drives a flow-level traffic mix through the simulator
// and measures what the DCN load-balancing literature (FatPaths and the
// multipathing surveys in PAPERS.md) judges routing designs by: per-flow
// completion time and the balance of bytes across equal-cost uplinks.
//
// The generator is open-loop: flows arrive by a Poisson process whether or
// not the fabric keeps up, sized by a heavy-tailed distribution, and each
// flow's packets are paced independently. Loss repair is a deliberately
// idealized SACK — the sender re-offers exactly the missing sequences one
// RTO after its last transmission, with zero feedback traffic — so flow
// completion times measure the *fabric's* recovery (hashing, reconvergence,
// queueing), not a transport implementation's.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/fluid"
	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/udp"
)

// Magic identifies workload data packets ("FLOW").
const Magic uint32 = 0x464c4f57

// wireHeaderLen is the data-packet header: magic + flow ID + sequence +
// total packet count, all big-endian u32.
const wireHeaderLen = 16

// Mode selects how generated flows are simulated.
type Mode int

const (
	// ModePacket sends every packet of every flow through the fabric —
	// full fidelity, bounded scale.
	ModePacket Mode = iota
	// ModeFluid models every flow analytically with max-min fair-share
	// rates — flow counts far beyond the packet engine's reach, no
	// per-packet effects.
	ModeFluid
	// ModeHybrid routes each flow by fidelity need: short flows (below
	// Config.FluidCutoff) and flows predicted to overlap the fault
	// window ride the packet path; the long tail goes fluid, with the
	// two coupled through shared link capacity.
	ModeHybrid
)

// String names the mode as the CLI flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeFluid:
		return "fluid"
	case ModeHybrid:
		return "hybrid"
	default:
		return "packet"
	}
}

// ModeByName parses a CLI mode name.
func ModeByName(name string) (Mode, bool) {
	switch name {
	case "packet":
		return ModePacket, true
	case "fluid":
		return ModeFluid, true
	case "hybrid":
		return ModeHybrid, true
	}
	return ModePacket, false
}

// PathFunc resolves a flow's current forwarding path without sending a
// packet: the directed fluid links it crosses and the path's fixed latency
// offset (propagation plus per-hop store-and-forward of one packet). The
// harness implements it by replaying the protocols' own next-hop decisions.
type PathFunc func(f *Flow) (path []fluid.LinkID, latency time.Duration, ok bool)

// Host is one traffic endpoint: a server's stack plus the labels the
// pairing patterns need.
type Host struct {
	Stack *ipstack.Stack
	IP    netaddr.IPv4
	Name  string
	Rack  string // hosts sharing a ToR; cross-rack patterns never pair within one
}

// Config parameterizes a workload run.
type Config struct {
	Pattern Pattern
	Sizes   SizeDist
	// Flows is the total number of flows to launch.
	Flows int
	// MeanArrival is the mean inter-arrival gap of the Poisson process.
	MeanArrival time.Duration
	// PacketSize is the UDP payload carried per data packet.
	PacketSize int
	// PacketInterval paces consecutive packets of one flow.
	PacketInterval time.Duration
	// DstPort is the well-known workload port every host listens on.
	DstPort uint16
	// RTO is the repair-round timer: one RTO after its last transmission
	// an incomplete flow re-offers its missing sequences.
	RTO time.Duration
	// MaxRounds bounds repair rounds before a flow is abandoned.
	MaxRounds int
	// Seed drives every random choice (arrivals, sizes, pairing).
	Seed int64

	// Mode selects the engine; the fields below only matter outside
	// ModePacket.
	Mode Mode
	// FluidCutoff demotes flows smaller than this many bytes to the
	// packet path (ModeHybrid).
	FluidCutoff int
	// RateInterval is the fluid solver's rate-recomputation cadence
	// (default 5ms).
	RateInterval time.Duration
	// DemoteFrom/DemoteUntil bound the fault window as offsets from
	// Start: ModeHybrid demotes flows whose predicted lifetime overlaps
	// it, keeping packet fidelity where reconvergence dynamics matter.
	// Zero values mean no window.
	DemoteFrom  time.Duration
	DemoteUntil time.Duration
	// Solver is the shared fluid rate allocator, its links pre-registered
	// by the harness; PathOf resolves flow paths onto those links. Both
	// are required outside ModePacket.
	Solver *fluid.Solver
	PathOf PathFunc
}

// DefaultConfig is the mix the harness experiments run: websearch sizes on
// the random pattern at a load that keeps a 2-PoD fabric busy but stable.
func DefaultConfig(seed int64) Config {
	return Config{
		Pattern:        PatternRandom,
		Sizes:          WebSearchMix(),
		Flows:          160,
		MeanArrival:    8 * time.Millisecond,
		PacketSize:     1000,
		PacketInterval: 120 * time.Microsecond,
		DstPort:        49000,
		RTO:            100 * time.Millisecond,
		MaxRounds:      60,
		Seed:           1,
	}
}

// Flow is one generated transfer. Schedule fields are fixed at generation;
// runtime fields fill in as the simulation runs.
type Flow struct {
	ID       uint32
	Src, Dst int // host indices
	SrcPort  uint16
	Bytes    int
	Packets  int
	Start    time.Duration // offset from Engine.Start

	launchedAt time.Duration
	launched   bool
	fluid      bool     // routed through the fluid model (decided at generation)
	pending    []uint32 // sequences queued for (re)transmission
	rounds     int
	retx       int
	received   int
	dups       int // arrivals of sequences already delivered
	// gotMask allocates lazily at launch, and only on the packet path —
	// a million fluid flows carry no packet-runtime state.
	gotMask []uint64
	timer   *simnet.Timer

	Done      bool
	Abandoned bool
	FCT       time.Duration // valid when Done
}

// Fluid reports whether the flow was routed through the fluid model.
func (f *Flow) Fluid() bool { return f.fluid }

func (f *Flow) got(seq uint32) bool { return f.gotMask[seq/64]&(1<<(seq%64)) != 0 }
func (f *Flow) mark(seq uint32)     { f.gotMask[seq/64] |= 1 << (seq % 64) }

// Engine generates, transmits and accounts a workload over one simulation.
type Engine struct {
	sim   simnet.Engine
	hosts []Host
	cfg   Config
	flows []*Flow
	byID  map[uint32]*Flow

	base    time.Duration // virtual time of Start
	started bool

	// Fluid-engine state, all touched only from control events at the
	// quiesce barrier. cursor walks the Start-sorted schedule so fluid
	// arrivals are consumed per rate epoch instead of costing a timer
	// each; phantoms tracks packet-path flows whose demand the solver
	// models.
	cursor     int
	fluidTimer *simnet.Timer
	phantoms   []phantomFlow

	// settled is Done's resume point: every flow before it has finished.
	settled int

	// PacketsSent counts data transmissions including repairs;
	// Retransmits the repair subset. Both are written only from the
	// send path (control events), never from receive handlers —
	// per-flow receive accounting lives on the Flow so that hosts on
	// different shards of a partitioned engine never share a counter.
	PacketsSent uint64
	Retransmits uint64

	// payload is the data-packet scratch buffer every sendData reuses:
	// SendUDP copies it into a pooled frame, and only the 16-byte wire
	// header differs between packets (the tail stays zero).
	payload []byte
}

// New generates the full flow schedule deterministically from cfg.Seed and
// registers the receive path on every host. sim is the engine driving the
// hosts' fabric — flow launches and repair timers are control events on it
// (on a partitioned Cluster they must not live on any one shard's heap). A
// nil sim defaults to the first host's own simulator, which is only valid
// sequentially.
func New(sim simnet.Engine, hosts []Host, cfg Config) (*Engine, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("workload: need at least 2 hosts, got %d", len(hosts))
	}
	if cfg.Flows < 1 || cfg.PacketSize < wireHeaderLen || cfg.Sizes == nil {
		return nil, fmt.Errorf("workload: bad config: %d flows, %dB packets", cfg.Flows, cfg.PacketSize)
	}
	if cfg.Mode != ModePacket {
		if cfg.Solver == nil || cfg.PathOf == nil {
			return nil, fmt.Errorf("workload: %s mode needs Solver and PathOf wired", cfg.Mode)
		}
		if cfg.RateInterval <= 0 {
			cfg.RateInterval = 5 * time.Millisecond
		}
	}
	if sim == nil {
		sim = hosts[0].Stack.Node.Sim
	}
	e := &Engine{
		sim:     sim,
		hosts:   hosts,
		cfg:     cfg,
		flows:   make([]*Flow, cfg.Flows),
		byID:    make(map[uint32]*Flow),
		payload: make([]byte, cfg.PacketSize),
	}
	// One slab holds every Flow record: a million-flow schedule is one
	// allocation, not a million.
	slab := make([]Flow, cfg.Flows)
	rng := rand.New(rand.NewSource(cfg.Seed))
	pair := e.pairer(rng)
	var at time.Duration
	for i := range slab {
		at += time.Duration(rng.ExpFloat64() * float64(cfg.MeanArrival))
		src, dst := pair(i)
		bytes := cfg.Sizes.Sample(rng.Float64())
		if bytes < 1 {
			bytes = 1
		}
		pkts := (bytes + cfg.PacketSize - 1) / cfg.PacketSize
		f := &slab[i]
		*f = Flow{
			ID:      uint32(i + 1),
			Src:     src,
			Dst:     dst,
			SrcPort: uint16(20000 + i%40000),
			Bytes:   bytes,
			Packets: pkts,
			Start:   at,
		}
		f.fluid = e.routeFluid(f)
		e.flows[i] = f
		if !f.fluid {
			// The receive path only ever looks up packet flows; keeping
			// fluid flows out of the map keeps its footprint bounded by
			// packet-path concurrency, not total flow count.
			e.byID[f.ID] = f
		}
	}
	seen := make(map[*ipstack.Stack]bool)
	for _, h := range hosts {
		if seen[h.Stack] {
			continue
		}
		seen[h.Stack] = true
		// The receive path runs inside the host's own event loop; it must
		// read that node's clock, not the engine-wide one (on a
		// partitioned Cluster the control clock lags mid-window).
		local := h.Stack.Node.Sim
		h.Stack.ListenUDP(cfg.DstPort, func(_, _ netaddr.IPv4, dg udp.Datagram) {
			e.onDatagram(local, dg)
		})
	}
	return e, nil
}

// pairer returns the pattern's (src, dst) chooser. All random draws happen
// through rng in flow order, keeping the schedule a pure function of the
// seed.
func (e *Engine) pairer(rng *rand.Rand) func(i int) (int, int) {
	n := len(e.hosts)
	switch e.cfg.Pattern {
	case PatternPermutation:
		// Shift far enough to leave the source's rack: with hosts
		// grouped by rack, the first index in a different rack is the
		// rack size.
		shift := 1
		for shift < n && e.hosts[shift].Rack == e.hosts[0].Rack {
			shift++
		}
		if shift == n {
			shift = 1
		}
		return func(i int) (int, int) { return i % n, (i%n + shift) % n }
	case PatternIncast:
		return func(i int) (int, int) { return 1 + i%(n-1), 0 }
	default: // PatternRandom
		return func(int) (int, int) {
			src := rng.Intn(n)
			for attempt := 0; attempt < 8*n; attempt++ {
				dst := rng.Intn(n)
				if dst != src && e.hosts[dst].Rack != e.hosts[src].Rack {
					return src, dst
				}
			}
			return src, (src + 1) % n // single-rack fallback
		}
	}
}

// routeFluid is the generation-time dispatch: which engine simulates this
// flow. Pure modes are trivial; hybrid demotes for fidelity — small flows
// (queueing and incast dynamics dominate their FCT) and flows whose
// predicted lifetime overlaps the fault window (reconvergence behavior is
// the whole point of those) take the packet path.
func (e *Engine) routeFluid(f *Flow) bool {
	switch e.cfg.Mode {
	case ModePacket:
		return false
	case ModeFluid:
		return true
	}
	if f.Bytes < e.cfg.FluidCutoff {
		return false
	}
	if e.cfg.DemoteUntil > e.cfg.DemoteFrom {
		if f.Start < e.cfg.DemoteUntil && f.Start+e.estimateDuration(f) > e.cfg.DemoteFrom {
			return false
		}
	}
	return true
}

// estimateDuration pessimistically predicts a flow's lifetime for the
// fault-window overlap test: twice the pacing-bound transfer time (the
// packet sender cannot beat one packet per PacketInterval, and the fluid
// cap matches it). Without pacing there is no sound a-priori bound, so
// everything near the window demotes.
func (e *Engine) estimateDuration(f *Flow) time.Duration {
	if e.cfg.PacketInterval > 0 && e.cfg.PacketSize > 0 {
		per := float64(f.Bytes) / float64(e.cfg.PacketSize)
		return time.Duration(2 * per * float64(e.cfg.PacketInterval))
	}
	return 1 << 62
}

// Start schedules every packet flow's launch and, outside ModePacket, the
// fluid solver's rate-epoch tick. Call once, before running the simulation
// forward.
func (e *Engine) Start() {
	if e.started {
		panic("workload: Engine started twice")
	}
	e.started = true
	e.base = e.sim.Now()
	for _, f := range e.flows {
		if f.fluid {
			continue // admitted by the tick's schedule cursor, no per-flow event
		}
		f := f
		//simlint:shardsafe launch mutates flow state at the quiesce barrier with every shard idle; revisit under barrier-free sync
		e.sim.At(e.base+f.Start, func() { e.launch(f) })
	}
	if e.cfg.Mode != ModePacket {
		//simlint:shardsafe the fluid tick reads flow flags and writes link reservations at the quiesce barrier with every shard idle; revisit under barrier-free sync
		e.fluidTimer = e.sim.After(e.cfg.RateInterval, e.fluidTick)
	}
}

// phantomFlow tracks one packet-path flow admitted to the solver as pure
// demand (hybrid mode), until its packet engine finishes it.
type phantomFlow struct {
	f *Flow
	h fluid.Handle
}

// fluidTick is the rate epoch, a control event at the quiesce barrier:
// integrate service and pop completions, consume newly arrived flows from
// the schedule cursor, release finished phantom demand, then recompute
// max-min rates and push the changed reservations onto the links.
func (e *Engine) fluidTick() {
	now := e.sim.Now()
	e.applyCompletions(e.cfg.Solver.Advance(now))
	for e.cursor < len(e.flows) && e.base+e.flows[e.cursor].Start <= now {
		f := e.flows[e.cursor]
		e.cursor++
		if f.fluid {
			e.admitFluid(f, e.base+f.Start)
		}
	}
	keep := e.phantoms[:0]
	for _, ph := range e.phantoms {
		if ph.f.Done || ph.f.Abandoned {
			e.cfg.Solver.Leave(ph.h)
		} else {
			keep = append(keep, ph)
		}
	}
	e.phantoms = keep
	e.applyCompletions(e.cfg.Solver.Reallocate(now))
	if e.cursor < len(e.flows) || e.cfg.Solver.Active() > 0 || len(e.phantoms) > 0 {
		e.fluidTimer.Reset(e.cfg.RateInterval)
	}
}

// applyCompletions marks flows the solver reports finished.
func (e *Engine) applyCompletions(cs []fluid.Completion) {
	for _, c := range cs {
		f := e.flows[c.ID-1]
		f.Done = true
		f.FCT = c.FCT
	}
}

// admitFluid hands one flow to the solver at its exact arrival instant
// (service credit is backdated to it by the epoch's Reallocate, so FCT
// loses nothing to the tick cadence). A flow with no resolvable path — a
// blackhole window — is abandoned, the analytic analogue of the packet
// sender exhausting MaxRounds into a void.
func (e *Engine) admitFluid(f *Flow, at time.Duration) {
	f.launchedAt = at
	f.launched = true
	path, lat, ok := e.cfg.PathOf(f)
	if !ok {
		f.Abandoned = true
		return
	}
	e.cfg.Solver.Admit(f.ID, int64(f.Bytes), path, lat, at)
}

// Repath re-resolves every fluid group's path against the current routing
// state. The harness calls it after injecting a topology event so standing
// reservations follow the reroute.
func (e *Engine) Repath() {
	if e.cfg.Mode == ModePacket || !e.started {
		return
	}
	e.cfg.Solver.Repath(func(id uint32) ([]fluid.LinkID, time.Duration, bool) {
		return e.cfg.PathOf(e.flows[id-1])
	})
	e.applyCompletions(e.cfg.Solver.Reallocate(e.sim.Now()))
}

func (e *Engine) launch(f *Flow) {
	f.launchedAt = e.sim.Now()
	f.launched = true
	f.gotMask = make([]uint64, (f.Packets+63)/64)
	f.pending = f.pending[:0]
	for seq := 0; seq < f.Packets; seq++ {
		f.pending = append(f.pending, uint32(seq))
	}
	if e.cfg.Mode == ModeHybrid {
		// The flow's real packets ride the residual serializer; its fair
		// share must still squeeze the fluid allocation, so the solver
		// models it as phantom demand until it finishes.
		if path, _, ok := e.cfg.PathOf(f); ok {
			e.phantoms = append(e.phantoms, phantomFlow{f: f, h: e.cfg.Solver.AdmitPhantom(path)})
		}
	}
	e.tick(f)
}

// tick is the per-flow sender: while sequences are pending it transmits one
// per PacketInterval; once drained it waits an RTO and re-offers whatever
// the receiver is still missing, up to MaxRounds.
func (e *Engine) tick(f *Flow) {
	if f.Done || f.Abandoned {
		return
	}
	if len(f.pending) == 0 {
		missing := f.missing()
		if len(missing) == 0 {
			return // completion races the check; the receive path recorded it
		}
		if f.rounds >= e.cfg.MaxRounds {
			f.Abandoned = true

			return
		}
		f.rounds++
		f.retx += len(missing)
		e.Retransmits += uint64(len(missing))
		f.pending = missing
	}
	seq := f.pending[0]
	f.pending = f.pending[1:]
	e.sendData(f, seq)
	wait := e.cfg.PacketInterval
	if len(f.pending) == 0 {
		wait = e.cfg.RTO
	}
	if f.timer != nil {
		f.timer.Reset(wait)
	} else {
		//simlint:shardsafe retransmit tick runs at the quiesce barrier with every shard idle; revisit under barrier-free sync
		f.timer = e.sim.After(wait, func() { e.tick(f) })
	}
}

// missing lists the sequences the receiver has not delivered, in order. The
// sender reading receiver state directly is the idealized-SACK shortcut
// documented in the package comment.
func (f *Flow) missing() []uint32 {
	var out []uint32
	for seq := uint32(0); seq < uint32(f.Packets); seq++ {
		if !f.got(seq) {
			out = append(out, seq)
		}
	}
	return out
}

// sendData transmits one data packet. It runs from the retransmit tick, a
// control event at the quiesce barrier, so the shared payload buffer is
// never written by two senders at once.
func (e *Engine) sendData(f *Flow, seq uint32) {
	e.PacketsSent++
	payload := e.payload
	putU32(payload[0:], Magic)
	putU32(payload[4:], f.ID)
	putU32(payload[8:], seq)
	putU32(payload[12:], uint32(f.Packets))
	src, dst := e.hosts[f.Src], e.hosts[f.Dst]
	src.Stack.SendUDP(src.IP, dst.IP, f.SrcPort, e.cfg.DstPort, payload)
}

// onDatagram is the receive path, running on the destination host's event
// loop. local is that host's simulator: its clock is the arrival instant.
// Only per-flow state is touched here — a flow's packets all land on one
// host, so no two shards of a partitioned engine ever write the same Flow.
func (e *Engine) onDatagram(local *simnet.Sim, dg udp.Datagram) {
	p := dg.Payload
	if len(p) < wireHeaderLen || u32(p) != Magic {
		return
	}
	f := e.byID[u32(p[4:])]
	seq := u32(p[8:])
	if f == nil || seq >= uint32(f.Packets) {
		return
	}
	if f.got(seq) {
		f.dups++
		return
	}
	f.mark(seq)
	f.received++
	if f.received == f.Packets && !f.Done {
		f.Done = true
		//simlint:clocksafe launchedAt was stamped by a control event at a quiesce barrier, where the coordinator and shard clocks agree
		f.FCT = local.Now() - f.launchedAt
	}
}

// Done reports whether every flow has finished (completed or abandoned).
// Callers run at quiescent points, so reading flow flags written by other
// shards' receive handlers is safe. A finished flow never becomes
// unfinished (Done and Abandoned are only ever set), so the scan resumes
// at the first flow it last found unfinished: polling costs O(flows) per
// run, not per call.
func (e *Engine) Done() bool {
	for ; e.settled < len(e.flows); e.settled++ {
		if f := e.flows[e.settled]; !f.Done && !f.Abandoned {
			return false
		}
	}
	return true
}

// Horizon is a lower bound on how long, measured from Start, the workload
// keeps the fabric busy: the latest instant at which some flow's final
// packet can leave its sender at the paced rate (a fluid flow's rate cap is
// the same pacing). No flow completes before its own bound, so a run that
// waits for every flow lasts at least this long unless flows are abandoned.
func (e *Engine) Horizon() time.Duration {
	var h time.Duration
	for _, f := range e.flows {
		if end := f.Start + time.Duration(f.Packets-1)*e.cfg.PacketInterval; end > h {
			h = end
		}
	}
	return h
}

// Flows exposes the schedule in generation order (read-only by convention).
func (e *Engine) Flows() []*Flow { return e.flows }

// --- reporting --------------------------------------------------------------

// Bucket is one flow-size class of the FCT report.
type Bucket struct {
	Label    string
	MaxBytes int // inclusive upper bound; flows above all buckets land in the last
}

// DefaultBuckets are the size classes of the harness tables: short queries,
// mid-size responses, heavy-tail bulk.
func DefaultBuckets() []Bucket {
	return []Bucket{
		{"S<=10KB", 10_000},
		{"M<=100KB", 100_000},
		{"L>100KB", 1 << 62},
	}
}

// BucketReport is the FCT sample of one size class, in milliseconds, in
// flow-generation order (deterministic run to run).
type BucketReport struct {
	Label     string
	Flows     int // flows of this size class launched
	Completed int
	FCTms     []float64
}

// Report is the engine's final accounting.
type Report struct {
	Flows       int
	Completed   int
	Abandoned   int
	Incomplete  int // launched or scheduled but neither completed nor abandoned at report time
	PacketsSent uint64
	Retransmits uint64
	Duplicates  uint64
	// FluidFlows counts flows routed through the fluid model (0 in
	// ModePacket).
	FluidFlows int
	// PeakConcurrent is the maximum number of flows in flight at once:
	// launched but not yet completed (abandoned and incomplete flows
	// count as in flight until the end of the run).
	PeakConcurrent int
	Buckets        []BucketReport
}

// CompletionRate is the completed fraction of all generated flows.
func (r Report) CompletionRate() float64 {
	if r.Flows == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Flows)
}

// Report assembles the final accounting against the given size buckets
// (DefaultBuckets when nil).
func (e *Engine) Report(buckets []Bucket) Report {
	if buckets == nil {
		buckets = DefaultBuckets()
	}
	r := Report{
		Flows:       len(e.flows),
		PacketsSent: e.PacketsSent,
		Retransmits: e.Retransmits,
		Buckets:     make([]BucketReport, len(buckets)),
	}
	for i, b := range buckets {
		r.Buckets[i].Label = b.Label
	}
	// Count first, then fill each FCT sample into one exact-size
	// allocation (a bucket with no completions keeps a nil sample).
	for _, f := range e.flows {
		br := &r.Buckets[bucketOf(buckets, f.Bytes)]
		br.Flows++
		switch {
		case f.Done:
			r.Completed++
			br.Completed++
		case f.Abandoned:
			r.Abandoned++
		}
		r.Duplicates += uint64(f.dups)
		if f.fluid {
			r.FluidFlows++
		}
	}
	r.Incomplete = r.Flows - r.Completed - r.Abandoned
	r.PeakConcurrent = e.peakConcurrent()
	for i := range r.Buckets {
		if n := r.Buckets[i].Completed; n > 0 {
			r.Buckets[i].FCTms = make([]float64, 0, n)
		}
	}
	for _, f := range e.flows {
		if f.Done {
			br := &r.Buckets[bucketOf(buckets, f.Bytes)]
			br.FCTms = append(br.FCTms, float64(f.FCT)/float64(time.Millisecond))
		}
	}
	return r
}

// bucketOf is the index of the first bucket holding bytes, or the last.
func bucketOf(buckets []Bucket, bytes int) int {
	for i, b := range buckets {
		if bytes <= b.MaxBytes {
			return i
		}
	}
	return len(buckets) - 1
}

// peakConcurrent sweeps launch/completion instants to find the maximum
// overlap. Flows that never finished keep their slot to the end of the run
// (their launch still counts; nothing ever releases it), which makes the
// figure an honest concurrency high-water mark even on overloaded runs.
func (e *Engine) peakConcurrent() int {
	starts := make([]time.Duration, 0, len(e.flows))
	ends := make([]time.Duration, 0, len(e.flows))
	for _, f := range e.flows {
		if !f.launched {
			continue
		}
		starts = append(starts, f.launchedAt)
		if f.Done {
			ends = append(ends, f.launchedAt+f.FCT)
		}
	}
	// Launches happen in schedule order, so starts normally arrive
	// sorted; only an out-of-order launch pays for the sort.
	if !slices.IsSorted(starts) {
		slices.Sort(starts)
	}
	slices.Sort(ends)
	cur, peak, j := 0, 0, 0
	for _, s := range starts {
		for j < len(ends) && ends[j] <= s {
			cur--
			j++
		}
		cur++
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Summaries reduces each bucket's FCT sample to descriptive statistics.
func (r Report) Summaries() []stats.Summary {
	out := make([]stats.Summary, len(r.Buckets))
	for i, b := range r.Buckets {
		out[i] = stats.Summarize(b.FCTms)
	}
	return out
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func u32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
