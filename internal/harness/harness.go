// Package harness orchestrates the paper's experiments: it realizes a
// folded-Clos topology in the simulator, deploys one of the three protocol
// configurations (MR-MTP, BGP/ECMP, BGP/ECMP/BFD), injects interface
// failures at the paper's TC1–TC4 points, and collects the metrics of
// Figs. 4–10. It is the in-process equivalent of the paper's FABRIC
// automation scripts (topology bring-up, software deployment, failure
// injection, log collection and parsing).
package harness

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bfd"
	"repro/internal/bgp"
	"repro/internal/ipstack"
	"repro/internal/metrics"
	"repro/internal/mrmtp"
	"repro/internal/netaddr"
	"repro/internal/routerlog"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Protocol selects the routing configuration under test.
type Protocol int

// The paper's three configurations.
const (
	ProtoMRMTP Protocol = iota
	ProtoBGP
	ProtoBGPBFD
)

func (p Protocol) String() string {
	switch p {
	case ProtoMRMTP:
		return "MR-MTP"
	case ProtoBGP:
		return "BGP/ECMP"
	case ProtoBGPBFD:
		return "BGP/ECMP/BFD"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Options configures a fabric build.
type Options struct {
	Spec topology.Spec
	// MultiTier, when non-nil, selects the four-tier fabric of the
	// paper's §IX scaling study instead of Spec.
	MultiTier *topology.MultiTierSpec
	Protocol  Protocol
	Seed      int64

	// Partitions selects the space-parallel engine: the fabric is split
	// across this many shards (PoDs must divide evenly; tops round-robin,
	// see topology.PartitionByPod) and run under conservative lookahead
	// synchronization. 0 or 1 means the sequential engine. Results are
	// bit-identical either way (DESIGN.md §11).
	Partitions int

	// BGPTimers defaults to the paper's 1 s/3 s with MRAI 0.
	BGPTimers bgp.Timers
	// BFD defaults to 100 ms × 3.
	BFD bfd.Config
	// MTPHello/MTPDead default to 50 ms/100 ms.
	MTPHello time.Duration
	MTPDead  time.Duration
	// MTPAccept is the Slow-to-Accept threshold (3 in the paper; 1
	// disables dampening, for the ablation benchmarks).
	MTPAccept int
	// BGPNoFastFailover disables interface tracking in the BGP speakers
	// (`no bgp fast-external-failover`), for the ablation benchmarks.
	BGPNoFastFailover bool
	// Journal, when non-nil, additionally records raw text logs of every
	// protocol event and failure injection — the paper's log-collection
	// methodology (§VI.B), re-analyzable with the routerlog package.
	Journal *routerlog.Journal
}

// DefaultOptions returns the paper's configuration for a protocol/topology.
func DefaultOptions(spec topology.Spec, proto Protocol, seed int64) Options {
	return Options{
		Spec:       spec,
		Protocol:   proto,
		Seed:       seed,
		BGPTimers:  bgp.DefaultTimers(),
		BFD:        bfd.DefaultConfig(),
		MTPHello:   50 * time.Millisecond,
		MTPDead:    100 * time.Millisecond,
		MTPAccept:  3,
		Partitions: DefaultPartitions,
	}
}

// DefaultPartitions is the shard count DefaultOptions picks up; closlab's
// -shards flag sets it before any fabric is built.
var DefaultPartitions = 1 //simlint:shared parallelism knob set by main before trials start, read-only afterwards

// Fabric is a realized, running testbed.
type Fabric struct {
	Opts Options
	// Sim is the event engine driving the fabric: a sequential *simnet.Sim,
	// or a *simnet.Cluster when Opts.Partitions > 1.
	Sim simnet.Engine
	// Cluster is the partitioned engine (nil when sequential).
	Cluster *simnet.Cluster
	// Part is the device→shard assignment (nil when sequential).
	Part *topology.Partition
	Topo *topology.Topology
	Log  *metrics.Log

	// shardLogs buffer protocol events per shard during parallel windows;
	// mergeShardLogs drains them into Log at every quiesce.
	shardLogs []*metrics.Log

	Speakers map[string]*bgp.Speaker   // BGP modes
	BFDs     map[string]*bfd.Manager   // BGP/BFD mode
	Routers  map[string]*mrmtp.Router  // MR-MTP mode
	Stacks   map[string]*ipstack.Stack // servers always; routers in BGP modes

	// devs holds every topology device's runtime objects, indexed by
	// topology.Device.ID and resolved once at Build: per-hop walks (the
	// fluid path resolver, the tracer) index it instead of looking each
	// hop up by name.
	devs []fabricDevice

	started  bool
	probeSeq uint16 // last ICMP probe ID handed out (Ping/Traceroute)
}

// fabricDevice is one topology device's node and protocol instance.
type fabricDevice struct {
	node   *simnet.Node
	router *mrmtp.Router  // MR-MTP routers; nil otherwise
	stack  *ipstack.Stack // servers; routers in BGP modes; nil otherwise
}

// dev returns the runtime objects of a topology device of this fabric.
func (f *Fabric) dev(d *topology.Device) *fabricDevice { return &f.devs[d.ID] }

// nextProbeID issues a fresh ICMP echo ID. The counter lives on the fabric
// rather than at package level so concurrent trials — each with its own
// Fabric — never share state (the sharedstate lint rule, DESIGN.md §9).
func (f *Fabric) nextProbeID() uint16 {
	f.probeSeq++
	return f.probeSeq
}

// Build realizes the fabric. Call Start (or WarmUp) before experiments.
func Build(opts Options) (*Fabric, error) {
	var topo *topology.Topology
	var err error
	if opts.MultiTier != nil {
		topo, err = topology.BuildMultiTier(*opts.MultiTier)
	} else {
		topo, err = topology.Build(opts.Spec)
	}
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		Opts:     opts,
		Topo:     topo,
		Log:      &metrics.Log{},
		Speakers: make(map[string]*bgp.Speaker),
		BFDs:     make(map[string]*bfd.Manager),
		Routers:  make(map[string]*mrmtp.Router),
		Stacks:   make(map[string]*ipstack.Stack),
		probeSeq: 0x4d54, // "MT": probe IDs stay recognizable in captures
	}

	var addNode func(name string) *simnet.Node
	var connect func(a, b *simnet.Port)
	if opts.Partitions > 1 {
		if opts.Journal != nil {
			return nil, fmt.Errorf("harness: Journal capture requires the sequential engine (Partitions=1): raw-log appends from parallel shards would race")
		}
		part, perr := topology.PartitionByPod(topo, opts.Partitions)
		if perr != nil {
			return nil, perr
		}
		cl := simnet.NewCluster(opts.Seed, opts.Partitions)
		cl.OnQuiesce = f.mergeShardLogs
		f.Sim, f.Cluster, f.Part = cl, cl, part
		f.shardLogs = make([]*metrics.Log, opts.Partitions)
		for i := range f.shardLogs {
			f.shardLogs[i] = &metrics.Log{}
		}
		addNode = func(name string) *simnet.Node {
			shard, _ := part.Shard(name)
			return cl.AddNode(name, shard)
		}
		connect = func(a, b *simnet.Port) { cl.Connect(a, b) }
	} else {
		seq := simnet.New(opts.Seed)
		f.Sim = seq
		addNode = seq.AddNode
		connect = func(a, b *simnet.Port) { seq.Connect(a, b) }
	}

	// Nodes and ports, in sorted-name order: Devices is a map, and letting
	// its iteration order pick node indices (and so MAC addresses) would
	// make wire captures differ between otherwise identical runs.
	names := make([]string, 0, len(topo.Devices))
	for name := range topo.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dev := topo.Devices[name]
		n := addNode(name)
		for range dev.Ports[1:] {
			n.AddPort()
		}
		n.Meta["tier"] = dev.Tier.String()
	}
	for _, l := range topo.Links {
		connect(
			f.Sim.Node(l.A.Device.Name).Port(l.A.Index),
			f.Sim.Node(l.B.Device.Name).Port(l.B.Index),
		)
	}

	// Servers always run the plain IP stack with a default route at the
	// rack gateway; both fabrics present the same .254 gateway.
	for _, srv := range topo.Servers {
		node := f.Sim.Node(srv.Name)
		stack := ipstack.New(node)
		leafPort := srv.Ports[1].Peer // the ToR end of the rack link
		subnet := srv.Ports[1].Subnet
		ifc := stack.AddIface(node.Port(1), srv.IP, subnet)
		stack.AddDefaultRoute(topology.LeafGatewayIP(leafPort.Device), ifc)
		f.Stacks[srv.Name] = stack
	}

	switch opts.Protocol {
	case ProtoMRMTP:
		f.buildMRMTP()
	case ProtoBGP, ProtoBGPBFD:
		f.buildBGP(opts.Protocol == ProtoBGPBFD)
	default:
		return nil, fmt.Errorf("harness: unknown protocol %d", int(opts.Protocol))
	}
	f.devs = make([]fabricDevice, len(names))
	for _, name := range names {
		f.devs[topo.Devices[name].ID] = fabricDevice{
			node:   f.Sim.Node(name),
			router: f.Routers[name],
			stack:  f.Stacks[name],
		}
	}
	return f, nil
}

func (f *Fabric) buildMRMTP() {
	top := 1
	for _, d := range f.Topo.Routers() {
		if d.Level > top {
			top = d.Level
		}
	}
	for _, d := range f.Topo.Routers() {
		cfg := mrmtp.DefaultConfig(d.Level, top)
		cfg.HelloInterval = f.Opts.MTPHello
		cfg.DeadInterval = f.Opts.MTPDead
		// Give every router a trace identity so TTL-expired probes earn a
		// time-exceeded reply attributable to this hop (same ID space as
		// the BGP fabric's router IDs).
		cfg.Identity = routerID(d)
		if f.Opts.MTPAccept > 0 {
			cfg.AcceptHellos = f.Opts.MTPAccept
		}
		if d.Tier == topology.TierLeaf {
			cfg.ServerPort = d.ServerPort
			cfg.RackSubnet = d.ServerSubnet
		}
		f.Routers[d.Name] = mrmtp.New(f.Sim.Node(d.Name), cfg, f.recorderFor(d.Name))
	}
}

func (f *Fabric) buildBGP(withBFD bool) {
	for _, d := range f.Topo.Routers() {
		node := f.Sim.Node(d.Name)
		stack := ipstack.New(node)
		f.Stacks[d.Name] = stack
		cfg := bgp.Config{
			ASN:                 uint16(d.ASN),
			RouterID:            routerID(d),
			Timers:              f.Opts.BGPTimers,
			ECMP:                true,
			DisableFastFailover: f.Opts.BGPNoFastFailover,
		}
		if d.Tier == topology.TierLeaf {
			cfg.Networks = []netaddr.Prefix{d.ServerSubnet}
		}
		sp := bgp.New(stack, cfg, f.recorderFor(d.Name))
		f.Speakers[d.Name] = sp
		var mgr *bfd.Manager
		if withBFD {
			mgr = bfd.NewManager(stack)
			f.BFDs[d.Name] = mgr
		}
		for _, p := range d.Ports[1:] {
			peerDev := p.Peer.Device
			if peerDev.Tier == topology.TierServer {
				// Rack interface: address only (the connected route
				// makes the subnet reachable and advertisable).
				stack.AddIface(node.Port(p.Index), topology.LeafGatewayIP(d), d.ServerSubnet)
				continue
			}
			ifc := stack.AddIface(node.Port(p.Index), p.IP, p.Subnet)
			peer := sp.AddPeer(ifc, p.Peer.IP, uint16(peerDev.ASN))
			if withBFD {
				sess := mgr.Add(p.IP, p.Peer.IP, f.Opts.BFD)
				sess.OnDown = peer.BFDDown
			}
		}
	}
}

// routerID derives a unique BGP identifier per device.
func routerID(d *topology.Device) netaddr.IPv4 {
	return netaddr.MakeIPv4(10, byte(d.Tier), byte(d.Pod), byte(d.Index))
}

// recorderFor returns the metrics sink for one device, teeing into the
// raw-log journal when one is configured. Under the partitioned engine each
// device records into its shard's private log (appending to the shared Log
// from parallel windows would race); mergeShardLogs recombines them
// deterministically at every quiesce.
func (f *Fabric) recorderFor(device string) metrics.Recorder {
	sink := metrics.Recorder(f.Log)
	if f.Cluster != nil {
		shard, _ := f.Part.Shard(device)
		sink = f.shardLogs[shard]
	}
	if f.Opts.Journal != nil {
		return metrics.Tee{sink, f.Opts.Journal}
	}
	return sink
}

// mergeShardLogs drains the per-shard event buffers into Log, merging by
// timestamp (each shard's buffer is already time-ordered because a shard
// processes its heap monotonically). Ties at one instant break by shard
// index; every downstream computation (Analyze, Timeline) is
// order-insensitive within an instant, so the merged log is equivalent to a
// sequential run's. Runs via Cluster.OnQuiesce with all workers idle.
func (f *Fabric) mergeShardLogs() {
	idx := make([]int, len(f.shardLogs))
	for {
		best := -1
		var at time.Duration
		for s, l := range f.shardLogs {
			if idx[s] < len(l.Events) && (best < 0 || l.Events[idx[s]].At < at) {
				best, at = s, l.Events[idx[s]].At
			}
		}
		if best < 0 {
			break
		}
		f.Log.Events = append(f.Log.Events, f.shardLogs[best].Events[idx[best]])
		idx[best]++
	}
	for _, l := range f.shardLogs {
		l.Reset()
	}
}

// Start launches every protocol daemon.
func (f *Fabric) Start() {
	if f.started {
		return
	}
	f.started = true
	f.Sim.Start()
}

// WarmUp starts the fabric and runs it to steady state, then clears the
// metrics log so only post-failure events are analyzed (the paper likewise
// measures from the failure instant). It returns an error if the fabric did
// not converge, so experiments never run on a half-built network.
func (f *Fabric) WarmUp(d time.Duration) error {
	f.Start()
	f.Sim.RunFor(d)
	if err := f.CheckConverged(); err != nil {
		return err
	}
	f.Log.Reset()
	return nil
}

// CheckConverged verifies steady state: all BGP sessions established and
// every router holding a route to every rack subnet, or every MR-MTP top
// spine holding one VID per ToR (the paper's Fig. 2 end state).
func (f *Fabric) CheckConverged() error {
	if f.Opts.Protocol == ProtoMRMTP {
		leaves := len(f.Topo.Leaves)
		for _, d := range f.Topo.Tops {
			r := f.Routers[d.Name]
			if r.TableSize() != leaves {
				return fmt.Errorf("harness: %s holds %d VIDs, want %d (one per ToR)", d.Name, r.TableSize(), leaves)
			}
		}
		leavesPerPod := f.Opts.Spec.LeavesPerPod
		if f.Opts.MultiTier != nil {
			leavesPerPod = f.Opts.MultiTier.LeavesPerPod
		}
		for _, d := range f.Topo.Spines {
			r := f.Routers[d.Name]
			if r.TableSize() != leavesPerPod {
				return fmt.Errorf("harness: %s holds %d VIDs, want %d", d.Name, r.TableSize(), leavesPerPod)
			}
		}
		if f.Opts.MultiTier != nil {
			// Zone spines hold one VID per leaf in their zone.
			perZone := f.Opts.MultiTier.PodsPerZone * f.Opts.MultiTier.LeavesPerPod
			for _, d := range f.Topo.Aggs {
				r := f.Routers[d.Name]
				if r.TableSize() != perZone {
					return fmt.Errorf("harness: %s holds %d VIDs, want %d", d.Name, r.TableSize(), perZone)
				}
			}
		}
		return nil
	}
	for _, d := range f.Topo.Routers() {
		sp := f.Speakers[d.Name]
		if got, want := sp.EstablishedCount(), len(sp.Peers()); got != want {
			return fmt.Errorf("harness: %s has %d/%d BGP sessions", d.Name, got, want)
		}
		stack := f.Stacks[d.Name]
		for _, leaf := range f.Topo.Leaves {
			if leaf.Name == d.Name {
				continue
			}
			if _, ok := stack.FIB.Lookup(leaf.ServerSubnet.Host(1)); !ok {
				return fmt.Errorf("harness: %s has no route to %s", d.Name, leaf.ServerSubnet)
			}
		}
	}
	return nil
}

// Fail injects the interface failure for a test case and returns the
// virtual time of the event.
func (f *Fabric) Fail(tc topology.FailureCase) (time.Duration, error) {
	fp, err := f.Topo.FailurePoint(tc)
	if err != nil {
		return 0, err
	}
	at := f.Sim.Now()
	f.Sim.Node(fp.Device).Port(fp.Port).Fail()
	if f.Opts.Journal != nil {
		f.Opts.Journal.FailureInjected(at, fp.Device, fp.Port)
	}
	return at, nil
}

// ServerStack returns the IP stack of the n-th server behind the ToR with
// the given VID.
func (f *Fabric) ServerStack(vid int, n int) (*ipstack.Stack, *topology.Device, error) {
	leaf := f.Topo.LeafByVID(vid)
	if leaf == nil {
		return nil, nil, fmt.Errorf("harness: no leaf with VID %d", vid)
	}
	count := 0
	for _, srv := range f.Topo.Servers {
		if srv.Ports[1].Peer.Device == leaf {
			count++
			if count == n {
				return f.Stacks[srv.Name], srv, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("harness: leaf %s has no server #%d", leaf.Name, n)
}
