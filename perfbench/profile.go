package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile the traced run records and splits its
// self time by layer. The profile is the gzipped protobuf runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto); only the fields
// the split needs are decoded, so the benchmark needs nothing beyond the
// standard library.

// layerOf maps a repository package (path below repro/internal/) to the
// layer it belongs to. Packages not listed fall into "other".
var layerOf = map[string]string{
	"simnet":           "simnet",
	"simnet/framepool": "simnet",
	"ipstack":          "ipstack",
	"ethernet":         "ipstack",
	"ipv4":             "ipstack",
	"udp":              "ipstack",
	"icmp":             "ipstack",
	"arp":              "ipstack",
	"mrmtp":            "mrmtp",
	"bgp":              "bgp",
	"tcp":              "bgp",
	"bfd":              "bfd",
	"fluid":            "fluid",
	"workload":         "workload",
	"pathtrace":        "pathtrace",
	"chaos":            "chaos",
	"metrics":          "metrics",
	"harness":          "harness",
}

// functionSets are the named function groups inside a layer whose self time
// is reported on its own; a function counts toward every set it matches.
var functionSets = []struct {
	metric string
	match  func(pkg, fn string) bool
}{
	{"simnet.heap_cpu_s", func(pkg, fn string) bool {
		if pkg != "simnet" {
			return false
		}
		for _, name := range []string{".siftDown", ".siftUp", ".heapPop", ".heapPush", ".heapFix", ".heapRemove", ".entryLess"} {
			if strings.HasSuffix(fn, name) {
				return true
			}
		}
		return false
	}},
	{"ipstack.checksum_cpu_s", func(pkg, fn string) bool {
		return layerOf[pkg] == "ipstack" && strings.Contains(strings.ToLower(fn), "checksum")
	}},
	{"ipstack.fib_lookup_cpu_s", func(pkg, fn string) bool {
		return pkg == "ipstack" && strings.Contains(fn, "(*FIB).Lookup")
	}},
	{"harness.path_cpu_s", func(pkg, fn string) bool {
		return pkg == "harness" && (strings.Contains(fn, ".pathFunc") || strings.Contains(fn, ".nextHopPort"))
	}},
	{"harness.trace_cpu_s", func(pkg, fn string) bool {
		return pkg == "harness" && (strings.Contains(fn, "(*traceRun)") || strings.Contains(fn, "Trace"))
	}},
}

// attribute picks the frame a sample's self time is charged to: the leaf,
// unless the leaf is in a package outside the repository and the runtime
// (sort, math, hash and the like), which is charged to the nearest
// repository caller so that library work counts toward the layer that
// asked for it. It returns the frame's layer, repository package and name.
func attribute(stack []string) (layer, pkg, fn string) {
	for _, f := range stack {
		layer, pkg = splitFunc(f)
		if layer != "other" || pkg != "" {
			return layer, pkg, f
		}
	}
	return "other", "", stack[0]
}

// splitFunc returns the layer and the repository package of a fully
// qualified function name such as "repro/internal/simnet.(*Sim).siftDown".
func splitFunc(name string) (layer, pkg string) {
	const prefix = "repro/internal/"
	if strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "runtime/") {
		return "runtime", ""
	}
	if !strings.HasPrefix(name, prefix) {
		return "other", ""
	}
	rest := name[len(prefix):]
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "other", ""
	}
	pkg = rest[:slash+1+dot]
	if l, ok := layerOf[pkg]; ok {
		return l, pkg
	}
	return "other", pkg
}

// splitProfile sums the self time, in seconds, of every sample whose labels
// include all of want, keyed by "<layer>.cpu_s" and by function-set metric.
func splitProfile(p *profile, want map[string]string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		if !hasLabels(s.labels, want) || len(s.stack) == 0 {
			continue
		}
		layer, pkg, fn := attribute(s.stack)
		sec := float64(s.nanos) / 1e9
		out[layer+".cpu_s"] += sec
		for _, set := range functionSets {
			if pkg != "" && set.match(pkg, fn) {
				out[set.metric] += sec
			}
		}
	}
	return out
}

func hasLabels(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// profile is the decoded part of a CPU profile.
type profile struct {
	samples []sample
}

// sample is one stack with its CPU time. stack[0] is the leaf function,
// with inlined callees listed before the function they were inlined into.
type sample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // string-table indexes of key and value
	}
	var (
		strs       []string
		valueTypes [][2]int64 // (type, unit) string indexes
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames  = map[uint64]int64{}    // function id → name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}

	// CPU profiles carry (samples/count, cpu/nanoseconds); take the
	// nanoseconds column.
	col := -1
	for i, vt := range valueTypes {
		if str(vt[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no nanoseconds sample value")
	}
	p := &profile{}
	for _, rs := range rawSamples {
		if col >= len(rs.values) {
			continue
		}
		s := sample{nanos: rs.values[col], labels: map[string]string{}}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fid]))
			}
		}
		for _, kv := range rs.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may be packed
// (wire type 2) or not (wire type 0).
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
