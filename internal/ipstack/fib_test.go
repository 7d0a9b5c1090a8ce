package ipstack

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// refLookup is the FIB's former lookup, a full scan over routes keeping the
// longest, then lowest-metric, then earliest usable match. The ordered
// Lookup must return the same route with the same live next hops.
func refLookup(f *FIB, dst netaddr.IPv4) (Route, bool) {
	usable := func(r Route) bool {
		for _, nh := range r.NextHops {
			if nh.Iface.Usable() {
				return true
			}
		}
		return false
	}
	best := -1
	for i, r := range f.routes {
		if !r.Prefix.Contains(dst) || !usable(r) {
			continue
		}
		if best < 0 ||
			r.Prefix.Bits > f.routes[best].Prefix.Bits ||
			(r.Prefix.Bits == f.routes[best].Prefix.Bits && r.Metric < f.routes[best].Metric) {
			best = i
		}
	}
	if best < 0 {
		return Route{}, false
	}
	r := f.routes[best]
	var live []NextHop
	for _, nh := range r.NextHops {
		if nh.Iface.Usable() {
			live = append(live, nh)
		}
	}
	r.NextHops = live
	return r, true
}

// fibFixture is a FIB over a handful of interfaces whose carriers the test
// toggles.
type fibFixture struct {
	ifaces []*Iface
}

func newFIBFixture(n int) fibFixture {
	sim := simnet.New(1)
	node := sim.AddNode("r")
	var fx fibFixture
	for i := 0; i < n; i++ {
		fx.ifaces = append(fx.ifaces, &Iface{Port: node.AddPort()})
	}
	return fx
}

func TestFIBLookupMatchesFullScan(t *testing.T) {
	protos := []string{ProtoKernel, ProtoBGP, ProtoStatic}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fx := newFIBFixture(6)
		// A small address pool makes nested, equal and duplicate
		// prefixes common; small metrics make ties common.
		addr := func() netaddr.IPv4 {
			return netaddr.MakeIPv4(10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(8)))
		}
		prefix := func() netaddr.Prefix { return netaddr.MakePrefix(addr(), rng.Intn(33)) }
		var f FIB
		var installed []Route
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 6:
				r := Route{Prefix: prefix(), Proto: protos[rng.Intn(len(protos))], Metric: rng.Intn(3)}
				if len(installed) > 0 && rng.Intn(3) == 0 {
					// Re-install an existing (prefix, proto) with a new
					// metric and next-hop set.
					old := installed[rng.Intn(len(installed))]
					r.Prefix, r.Proto = old.Prefix, old.Proto
				}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					r.NextHops = append(r.NextHops, NextHop{Via: addr(), Iface: fx.ifaces[rng.Intn(len(fx.ifaces))]})
				}
				f.Replace(r)
				installed = append(installed, r)
			case k < 8:
				if len(installed) > 0 {
					old := installed[rng.Intn(len(installed))]
					f.Remove(old.Prefix, old.Proto)
				} else {
					f.Remove(prefix(), protos[rng.Intn(len(protos))])
				}
			default:
				p := fx.ifaces[rng.Intn(len(fx.ifaces))].Port
				if p.Up() {
					p.Fail()
				} else {
					p.Restore()
				}
			}
			for probe := 0; probe < 8; probe++ {
				dst := addr()
				if probe == 0 {
					dst = netaddr.MakeIPv4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				}
				want, wantOK := refLookup(&f, dst)
				got, gotOK := f.Lookup(dst)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: Lookup(%s) = %+v, %v; full scan = %+v, %v", seed, op, dst, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// spineFIB is a spine-sized table: a /31 kernel route per fabric link and
// a 4-way ECMP BGP route per rack subnet.
func spineFIB(fx fibFixture) *FIB {
	var f FIB
	for i, ifc := range fx.ifaces {
		f.Replace(Route{Prefix: netaddr.MakePrefix(netaddr.MakeIPv4(172, 16, byte(i), 0), 31), Proto: ProtoKernel, NextHops: []NextHop{{Iface: ifc}}})
	}
	for vid := 0; vid < 32; vid++ {
		var nhs []NextHop
		for _, ifc := range fx.ifaces[:4] {
			nhs = append(nhs, NextHop{Via: netaddr.MakeIPv4(172, 16, byte(vid), 1), Iface: ifc})
		}
		f.Replace(Route{Prefix: netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, byte(vid), 0), 24), Proto: ProtoBGP, Metric: 20, NextHops: nhs})
	}
	return &f
}

// TestFIBLookupAllocs pins the per-packet FIB lookup at zero allocations:
// the live next hops land in the FIB's own scratch slice.
func TestFIBLookupAllocs(t *testing.T) {
	f := spineFIB(newFIBFixture(6))
	dst := netaddr.MakeIPv4(192, 168, 31, 7)
	if _, ok := f.Lookup(dst); !ok {
		t.Fatal("rack subnet not routed")
	}
	if avg := testing.AllocsPerRun(200, func() { f.Lookup(dst) }); avg > 0 {
		t.Errorf("Lookup allocates %.1f/op, want 0", avg)
	}
}

// TestFIBReplaceAllocs pins a BGP update of an installed prefix at zero
// allocations, including a metric change that re-ranks the route.
func TestFIBReplaceAllocs(t *testing.T) {
	f := spineFIB(newFIBFixture(6))
	r := *f.Get(netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 9, 0), 24), ProtoBGP)
	metric := 0
	avg := testing.AllocsPerRun(200, func() {
		metric = (metric + 1) % 3
		r.Metric = 20 + metric
		f.Replace(r)
	})
	if avg > 0 {
		t.Errorf("Replace of an installed prefix allocates %.1f/op, want 0", avg)
	}
	if f.Len() != 6+32 {
		t.Errorf("table holds %d routes, want %d", f.Len(), 6+32)
	}
}
