// Package fluid is the flow-level (fluid) half of the hybrid simulation
// engine: long-lived flows are modeled analytically instead of
// packet-by-packet. Each flow receives a max-min fair share of every link
// on its path (progressive filling, recomputed on an epoch cadence and on
// arrival/departure/topology events), and its completion time falls out of
// integrating the allocated rate — the standard reduction the flow-level
// evaluation literature (FatPaths, the multipathing surveys in PAPERS.md)
// uses to reach flow counts a packet simulator cannot.
//
// The solver is deliberately ignorant of the simulator: callers register
// directed link capacities with AddLink and receive committed fluid shares
// back through per-link apply callbacks; the workload engine drives
// Advance/Admit/Reallocate from control events on the virtual clock. All
// state is owned by those calls — the package does no synchronization and
// must only be touched from the engine's quiesce barrier.
//
// Scale comes from aggregation: flows sharing an identical resolved path
// form one *path group*. Rates, service curves and progressive filling run
// per group (a Clos fabric has few distinct paths), while per-flow state is
// one 32-byte heap entry — so a million concurrent flows cost one heap push
// and one pop each, not a million timers.
//
// Determinism: groups and links live in slices in creation order, maps are
// lookup-only (never ranged), and every float operation runs in a fixed
// order — the same admission sequence always produces bit-identical rates
// and completion times, on any shard count.
package fluid

import (
	"math"
	"time"

	"repro/internal/invariant"
)

// LinkID names one direction of one registered link.
type LinkID int32

// Handle identifies a phantom admission (a packet-path flow whose demand is
// modeled so fluid shares leave room for its real packets).
type Handle int32

// unconstrainedBps is the rate a flow gets when neither a link capacity nor
// the per-flow cap binds: effectively instantaneous completion.
const unconstrainedBps = 1e15

// Config parameterizes the solver.
type Config struct {
	// RateCapBps bounds any single flow's allocated rate — the packet
	// engine paces one packet per PacketInterval, so matching its FCT on
	// uncongested paths requires the same ceiling. 0 means uncapped.
	RateCapBps float64
}

// Completion reports one fluid flow finishing: the exact crossing instant
// of its byte threshold within the last rate epoch, and the flow completion
// time including the path's fixed latency offset.
type Completion struct {
	ID  uint32
	At  time.Duration
	FCT time.Duration
}

// member is one fluid flow inside a path group: the cumulative-service
// level at which it completes, keyed for the group's min-heap.
type member struct {
	threshold float64 // group service (bytes) at which this flow is done
	admitted  time.Duration
	id        uint32
	seq       uint32 // admission order, the deterministic tie-break
}

// group aggregates flows sharing one resolved path. Phantom groups model
// packet-path demand only: they join progressive filling but have no
// service curve and never reserve wire capacity.
type group struct {
	path    []LinkID
	latency time.Duration // fixed per-flow FCT offset (propagation + store-and-forward)
	phantom bool

	n       int     // active flows
	rate    float64 // per-flow bps from the last Reallocate
	service float64 // cumulative per-flow bytes served
	heap    []member

	frozen bool // progressive-filling scratch
}

// link is one registered direction with its allocation scratch state.
type link struct {
	capBps float64                           // 0 = unconstrained
	apply  func(bps int64, at time.Duration) // commits the fluid share to the wire
	groups []int32                           // indexes of groups routed over this link

	lastApplied int64
	// progressive-filling scratch
	resid float64
	nf    int
	fluid float64
}

// Solver owns the fluid links, path groups and rate allocation.
type Solver struct {
	cfg    Config
	links  []*link
	groups []*group
	index  map[string]int32 // path key -> group index (lookup only, never ranged)
	keyBuf []byte

	completions []Completion
	pending     []pendingAdmit
	resolved    []Completion // Reallocate's immediate completions (own buffer: the caller may still hold Advance's)
	active      int          // live fluid (non-phantom) flows
	peak        int
	seq         uint32
	lastNow     time.Duration
}

// New creates an empty solver.
func New(cfg Config) *Solver {
	return &Solver{cfg: cfg, index: make(map[string]int32)}
}

// AddLink registers one direction of capacity capBps. apply, when non-nil,
// is called with the committed aggregate fluid share whenever it changes
// (the simnet coupling: reserved bandwidth leaves the packet serializer its
// residual). capBps <= 0 registers an unconstrained direction.
func (s *Solver) AddLink(capBps int64, apply func(bps int64, at time.Duration)) LinkID {
	s.links = append(s.links, &link{capBps: float64(capBps), apply: apply})
	return LinkID(len(s.links) - 1)
}

// Active returns the number of live fluid flows.
func (s *Solver) Active() int { return s.active }

// Peak returns the high-water mark of Active since creation.
func (s *Solver) Peak() int { return s.peak }

// Groups returns the number of path groups created so far (phantom and
// fluid).
func (s *Solver) Groups() int { return len(s.groups) }

// pathKey renders a path (plus the phantom/fluid kind, which must never
// share a group) into the lookup key. The bytes live in the solver's
// scratch buffer until the next call; lookups index the map with
// string(key), which does not allocate.
func (s *Solver) pathKey(path []LinkID, phantom bool) []byte {
	b := s.keyBuf[:0]
	if phantom {
		b = append(b, 'P')
	} else {
		b = append(b, 'F')
	}
	for _, id := range path {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	s.keyBuf = b
	return b
}

// groupFor finds or creates the group owning (path, phantom). Joining an
// existing group allocates nothing; only a new group copies its key.
func (s *Solver) groupFor(path []LinkID, latency time.Duration, phantom bool) (*group, int32) {
	key := s.pathKey(path, phantom)
	if gi, ok := s.index[string(key)]; ok {
		return s.groups[gi], gi
	}
	g := &group{path: append([]LinkID(nil), path...), latency: latency, phantom: phantom}
	gi := int32(len(s.groups))
	s.groups = append(s.groups, g)
	s.index[string(key)] = gi
	for _, lid := range path {
		s.links[lid].groups = append(s.links[lid].groups, gi)
	}
	return g, gi
}

// pendingAdmit is a flow admitted since the last Reallocate: it counts
// toward its group's demand immediately, but its completion threshold is
// resolved only after the next Reallocate, against the rate it actually
// receives.
type pendingAdmit struct {
	gi    int32
	bytes float64
	at    time.Duration
	id    uint32
}

// Admit adds a fluid flow of the given size at instant at (which must lie
// in the epoch ending at the last Advance). The flow joins its group's
// demand at once, but its service credit is resolved by the next Reallocate
// at its post-allocation rate: the packet engine it stands in for starts
// pacing at the arrival instant, not at the next rate epoch, so the credit
// backdates transmission to `at` — exact on idle paths, where the group's
// stale rate (zero) says nothing about what the flow will get.
func (s *Solver) Admit(id uint32, bytes int64, path []LinkID, latency, at time.Duration) {
	g, gi := s.groupFor(path, latency, false)
	s.pending = append(s.pending, pendingAdmit{gi: gi, bytes: float64(bytes), at: at, id: id})
	g.n++
	s.active++
	if s.active > s.peak {
		s.peak = s.active
	}
}

// AdmitPhantom adds a packet-path flow's demand to the allocation (hybrid
// mode: short and fault-window flows ride the packet engine, but their fair
// share must still squeeze fluid reservations, exactly as their real
// packets squeeze the residual serializer). The handle releases it.
func (s *Solver) AdmitPhantom(path []LinkID) Handle {
	g, gi := s.groupFor(path, 0, true)
	g.n++
	return Handle(gi)
}

// Leave releases one phantom admission.
func (s *Solver) Leave(h Handle) {
	g := s.groups[h]
	if invariant.Enabled {
		invariant.Assert(g.phantom && g.n > 0, "fluid: Leave on a non-phantom or empty group")
	}
	if g.n > 0 {
		g.n--
	}
}

// Advance integrates every group's service curve from the last epoch
// boundary to now (rates are piecewise-constant between Reallocate calls)
// and pops completions with their exact crossing instants. The returned
// slice is reused by the next Advance.
func (s *Solver) Advance(now time.Duration) []Completion {
	dt := (now - s.lastNow).Seconds()
	out := s.completions[:0]
	for _, g := range s.groups {
		if g.phantom || g.rate <= 0 {
			continue
		}
		prev := g.service
		if dt > 0 {
			g.service = prev + g.rate/8*dt
		}
		for len(g.heap) > 0 && g.heap[0].threshold <= g.service {
			m := g.heap[0]
			popMin(&g.heap)
			over := (m.threshold - prev) * 8 / g.rate // seconds into the epoch
			if over < 0 {
				over = 0
			}
			doneAt := s.lastNow + time.Duration(over*float64(time.Second))
			if doneAt > now {
				doneAt = now
			}
			out = append(out, Completion{ID: m.id, At: doneAt, FCT: doneAt - m.admitted + g.latency})
			g.n--
			s.active--
		}
	}
	s.lastNow = now
	s.completions = out
	return out
}

// Reallocate recomputes every group's per-flow rate by progressive filling
// — repeatedly freezing the groups crossing the currently tightest link at
// its fair share — with the per-flow cap applied, then commits each link's
// aggregate fluid share (phantom demand excluded) through its apply hook.
// Finally it resolves the thresholds of flows admitted since the last call;
// flows whose backdated credit says they already finished are returned as
// completions with their exact FCTs (the returned slice is reused).
func (s *Solver) Reallocate(now time.Duration) []Completion {
	unfrozen := 0
	for _, l := range s.links {
		l.resid = l.capBps
		l.nf = 0
	}
	for _, g := range s.groups {
		g.frozen = g.n == 0
		if g.frozen {
			g.rate = 0
			continue
		}
		unfrozen++
		for _, lid := range g.path {
			if l := s.links[lid]; l.capBps > 0 {
				l.nf += g.n
			}
		}
	}
	for unfrozen > 0 {
		minShare := math.Inf(1)
		minLink := -1
		for i, l := range s.links {
			if l.capBps <= 0 || l.nf == 0 {
				continue
			}
			if share := l.resid / float64(l.nf); share < minShare {
				minShare = share
				minLink = i
			}
		}
		if minLink < 0 || (s.cfg.RateCapBps > 0 && s.cfg.RateCapBps <= minShare) {
			// No link binds tighter than the per-flow cap (or nothing
			// binds at all): everything left freezes at the ceiling.
			r := s.cfg.RateCapBps
			if r <= 0 {
				r = unconstrainedBps
			}
			for _, g := range s.groups {
				if !g.frozen {
					g.rate = r
					s.freeze(g)
					unfrozen--
				}
			}
			break
		}
		if minShare < 0 {
			minShare = 0
		}
		before := unfrozen
		for _, gi := range s.links[minLink].groups {
			if g := s.groups[gi]; !g.frozen {
				g.rate = minShare
				s.freeze(g)
				unfrozen--
			}
		}
		if invariant.Enabled {
			invariant.Assert(unfrozen < before, "fluid: progressive filling made no progress")
		}
		if unfrozen >= before {
			break // defensive: a zero-share bottleneck with no groups left
		}
	}
	for _, l := range s.links {
		l.fluid = 0
	}
	for _, g := range s.groups {
		if g.phantom || g.n == 0 {
			continue
		}
		for _, lid := range g.path {
			s.links[lid].fluid += float64(g.n) * g.rate
		}
	}
	for _, l := range s.links {
		if invariant.Enabled && l.capBps > 0 {
			invariant.Assertf(l.fluid <= l.capBps*(1+1e-9)+1,
				"fluid: link over-allocated: %g bps of %g", l.fluid, l.capBps)
		}
		bps := int64(l.fluid)
		if bps != l.lastApplied {
			l.lastApplied = bps
			if l.apply != nil {
				l.apply(bps, now)
			}
		}
	}
	return s.resolvePending(now)
}

// resolvePending turns this epoch's admissions into heap members (or
// immediate completions) using the rates they were just allocated. The
// credit backdates service to the arrival instant at the allocated rate —
// on an otherwise-idle path this reproduces the packet engine's pacing
// start exactly: completion at `at + bytes*8/rate`, not at the epoch
// boundary plus the transfer.
func (s *Solver) resolvePending(now time.Duration) []Completion {
	out := s.resolved[:0]
	for _, p := range s.pending {
		g := s.groups[p.gi]
		credit := 0.0
		if g.rate > 0 && p.at < now {
			credit = g.rate / 8 * (now - p.at).Seconds()
		}
		threshold := g.service - credit + p.bytes
		if threshold <= g.service && g.rate > 0 {
			// Finished before this epoch boundary: exact analytic FCT.
			dur := time.Duration(p.bytes * 8 / g.rate * float64(time.Second))
			doneAt := p.at + dur
			if doneAt > now {
				doneAt = now
			}
			out = append(out, Completion{ID: p.id, At: doneAt, FCT: dur + g.latency})
			g.n--
			s.active--
			continue
		}
		s.seq++
		g.heap = append(g.heap, member{threshold: threshold, admitted: p.at, id: p.id, seq: s.seq})
		siftUp(g.heap, len(g.heap)-1)
	}
	s.pending = s.pending[:0]
	s.resolved = out
	return out
}

// freeze fixes g at its current rate and removes its demand from its path.
func (s *Solver) freeze(g *group) {
	g.frozen = true
	for _, lid := range g.path {
		l := s.links[lid]
		if l.capBps <= 0 {
			continue
		}
		l.resid -= float64(g.n) * g.rate
		if l.resid < 0 {
			l.resid = 0
		}
		l.nf -= g.n
	}
}

// Repath re-resolves every live fluid group's path through resolve (called
// with one representative member's flow ID) — the topology-event hook: a
// failure that moved the forwarding decision moves the group's reservation
// with it. Groups whose representative no longer resolves keep their stale
// path; the hybrid demotion window exists precisely so few fluid flows
// straddle such events (DESIGN.md §15, fidelity limits). The group's old
// path key is retired, so later admissions on either path form or join
// groups matching the tables they were resolved against.
func (s *Solver) Repath(resolve func(id uint32) (path []LinkID, latency time.Duration, ok bool)) {
	for gi, g := range s.groups {
		if g.phantom || len(g.heap) == 0 {
			continue
		}
		newPath, lat, ok := resolve(g.heap[0].id)
		if !ok || samePath(g.path, newPath) {
			continue
		}
		delete(s.index, string(s.pathKey(g.path, false)))
		for _, lid := range g.path {
			s.links[lid].groups = removeGroup(s.links[lid].groups, int32(gi))
		}
		g.path = append(g.path[:0], newPath...)
		g.latency = lat
		for _, lid := range g.path {
			s.links[lid].groups = append(s.links[lid].groups, int32(gi))
		}
	}
}

func samePath(a, b []LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func removeGroup(gs []int32, gi int32) []int32 {
	for i, g := range gs {
		if g == gi {
			return append(gs[:i], gs[i+1:]...)
		}
	}
	return gs
}

// --- member min-heap (threshold, then admission seq) ------------------------

// The heap is 4-ary, and both sifts move a hole instead of swapping: the
// moving member is written once, where it lands. (threshold, seq) is a
// strict total order — seq is unique — so the pop sequence is the same as
// any other correct heap's.

const heapArity = 4

func memberLess(a, b member) bool {
	if a.threshold != b.threshold {
		return a.threshold < b.threshold
	}
	return a.seq < b.seq
}

func siftUp(h []member, i int) {
	m := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !memberLess(m, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = m
}

func popMin(h *[]member) {
	s := *h
	n := len(s) - 1
	m := s[n]
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			first := heapArity*i + 1
			if first >= n {
				break
			}
			min := first
			for c := first + 1; c < first+heapArity && c < n; c++ {
				if memberLess(s[c], s[min]) {
					min = c
				}
			}
			if !memberLess(s[min], m) {
				break
			}
			s[i] = s[min]
			i = min
		}
		s[i] = m
	}
	*h = s
}
