// Package ipstack is the host/router IP stack of the BGP baseline: Ethernet
// demux, ARP resolution, IPv4 forwarding with an ECMP-capable FIB, and
// UDP/TCP delivery. It plays the role of the Linux kernel networking that
// the paper's FRR routers sat on, including the behaviour the experiments
// depend on: when a local interface dies, next hops through it become
// unusable immediately (the kernel's dead-nexthop handling), which is why
// BGP packet loss is small when the failure is adjacent to the traffic
// source (Fig. 7, TC1/TC3).
package ipstack

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/flowhash"
	"repro/internal/invariant"
	"repro/internal/netaddr"
)

// Route protocol tags, mirroring `ip route` output (Listing 3).
const (
	ProtoKernel = "kernel"
	ProtoBGP    = "bgp"
	ProtoStatic = "static"
)

// NextHop is one way out of the router for a route.
type NextHop struct {
	Via   netaddr.IPv4 // gateway; zero for directly connected routes
	Iface *Iface
}

// Route is a FIB entry. Multiple next hops form an ECMP group.
type Route struct {
	Prefix   netaddr.Prefix
	NextHops []NextHop
	Proto    string
	Metric   int
}

// FIB is a longest-prefix-match forwarding table.
type FIB struct {
	routes []Route
	// order indexes routes in lookup preference: prefix length
	// descending, then metric ascending, then position in routes
	// ascending. Lookup returns the first containing route with a usable
	// next hop, which is the route a full scan keeping the longest, then
	// cheapest, then earliest match would pick.
	order []int32
	live  []NextHop // Lookup's scratch: reused so per-packet lookups do not allocate
}

// Replace installs a route, replacing any same-prefix route from the same
// protocol.
func (f *FIB) Replace(r Route) {
	for i := range f.routes {
		if f.routes[i].Prefix == r.Prefix && f.routes[i].Proto == r.Proto {
			moved := f.routes[i].Metric != r.Metric
			f.routes[i] = r
			if moved {
				f.unlink(int32(i))
				f.link(int32(i))
			}
			f.checkOrder()
			return
		}
	}
	f.routes = append(f.routes, r)
	f.link(int32(len(f.routes) - 1))
	f.checkOrder()
}

// Remove deletes the route for prefix installed by proto. It reports
// whether a route was removed.
func (f *FIB) Remove(prefix netaddr.Prefix, proto string) bool {
	for i := range f.routes {
		if f.routes[i].Prefix == prefix && f.routes[i].Proto == proto {
			f.routes = append(f.routes[:i], f.routes[i+1:]...)
			f.unlink(int32(i))
			// Routes after i moved down one position; their relative
			// order, and so their rank, is unchanged.
			for k, j := range f.order {
				if j > int32(i) {
					f.order[k] = j - 1
				}
			}
			f.checkOrder()
			return true
		}
	}
	return false
}

// before reports whether route i is preferred over route j.
func (f *FIB) before(i, j int32) bool {
	a, b := &f.routes[i], &f.routes[j]
	if a.Prefix.Bits != b.Prefix.Bits {
		return a.Prefix.Bits > b.Prefix.Bits
	}
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	return i < j
}

// link inserts route i into order at its rank. Shifting the tail in place
// keeps updates allocation-free once order has grown to the table size.
func (f *FIB) link(i int32) {
	lo, hi := 0, len(f.order)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.before(f.order[mid], i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	f.order = append(f.order, 0)
	copy(f.order[lo+1:], f.order[lo:])
	f.order[lo] = i
}

// unlink drops route index i from order.
func (f *FIB) unlink(i int32) {
	for k, j := range f.order {
		if j == i {
			f.order = append(f.order[:k], f.order[k+1:]...)
			return
		}
	}
}

// checkOrder asserts, in invariant builds, that order ranks every route
// exactly once.
func (f *FIB) checkOrder() {
	if !invariant.Enabled {
		return
	}
	invariant.Assert(len(f.order) == len(f.routes), "ipstack: FIB order does not rank every route")
	for k := 1; k < len(f.order); k++ {
		invariant.Assert(f.before(f.order[k-1], f.order[k]), "ipstack: FIB order out of rank")
	}
}

// Get returns the route for an exact prefix+proto, or nil.
func (f *FIB) Get(prefix netaddr.Prefix, proto string) *Route {
	for i := range f.routes {
		if f.routes[i].Prefix == prefix && f.routes[i].Proto == proto {
			return &f.routes[i]
		}
	}
	return nil
}

// Len returns the number of routes: the "routing table size" metric of the
// paper's §VII.H comparison.
func (f *FIB) Len() int { return len(f.routes) }

// Lookup performs longest-prefix-match for dst, preferring more-specific
// prefixes, then lower metrics, then the earlier-installed route. Next hops
// whose interface is down are filtered out (kernel dead-nexthop
// behaviour); a route with no usable next hops is skipped entirely. The
// scan walks routes in preference order and stops at the first usable
// match.
//
// The returned route's NextHops slice is scratch space owned by the FIB: it
// is valid until the next Lookup call. Per-packet callers (routeOut) consume
// it immediately; anyone who needs to keep it must copy.
//
//simlint:hotpath
func (f *FIB) Lookup(dst netaddr.IPv4) (Route, bool) {
	for _, i := range f.order {
		r := &f.routes[i]
		if !r.Prefix.Contains(dst) {
			continue
		}
		live := f.live[:0]
		for _, nh := range r.NextHops {
			if nh.Iface.Usable() {
				live = append(live, nh)
			}
		}
		f.live = live
		if len(live) == 0 {
			continue
		}
		out := *r
		out.NextHops = live
		return out, true
	}
	return Route{}, false
}

// FlowKey is the 5-tuple ECMP hashes on. It is shared with MR-MTP's uplink
// load balancing (paper §III.C mentions "a hash algorithm to load balance
// traffic from a downstream router to upstream routers") via flowhash.
type FlowKey = flowhash.Key

// Pick selects a next hop for the flow from an ECMP group.
func (r Route) Pick(k FlowKey) NextHop {
	return r.NextHops[int(k.Hash())%len(r.NextHops)]
}

// Render prints the FIB in `ip route` style, matching the paper's
// Listing 3 (kernel routing table at a tier-2 spine).
func (f *FIB) Render() string {
	routes := append([]Route(nil), f.routes...)
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Prefix.IP != routes[j].Prefix.IP {
			return routes[i].Prefix.IP.Uint32() < routes[j].Prefix.IP.Uint32()
		}
		return routes[i].Prefix.Bits < routes[j].Prefix.Bits
	})
	var b strings.Builder
	for _, r := range routes {
		switch {
		case r.Proto == ProtoKernel:
			fmt.Fprintf(&b, "%s dev eth%d proto kernel scope link src %s\n",
				r.Prefix, r.NextHops[0].Iface.Port.Index, r.NextHops[0].Iface.IP)
		case len(r.NextHops) == 1:
			fmt.Fprintf(&b, "%s via %s dev eth%d proto %s metric %d\n",
				r.Prefix, r.NextHops[0].Via, r.NextHops[0].Iface.Port.Index, r.Proto, r.Metric)
		default:
			fmt.Fprintf(&b, "%s proto %s metric %d\n", r.Prefix, r.Proto, r.Metric)
			for _, nh := range r.NextHops {
				fmt.Fprintf(&b, "\tnexthop via %s dev eth%d weight 1\n", nh.Via, nh.Iface.Port.Index)
			}
		}
	}
	return b.String()
}
