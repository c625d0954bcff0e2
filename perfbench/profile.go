package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes CPU-profile samples to layers. Work the benchmark
// reaches only through Network.Run (handlers, timers, message delivery)
// has no span around it, so the traced run records a runtime/pprof CPU
// profile and charges each sample to the layer of its innermost frame in
// this module. The profile is decoded here with a minimal protobuf reader
// because the module takes no dependencies.

// modulePrefix is the import-path prefix of the layers under test.
// benchPkg prefixes this package's functions when it is built as a test
// binary; the benchmark binary names them main.*.
const (
	modulePrefix = "repro/internal/"
	benchPkg     = "repro/perfbench."
)

// packageLayers maps every package under internal/ to its layer name.
// TestPackageLayersCoverInternal fails when a package is added without an
// entry, so no package can fall silently into "other".
var packageLayers = map[string]string{
	"chain":           "chain",
	"core":            "core",
	"cryptoutil":      "cryptoutil",
	"dht":             "dht",
	"erasure":         "erasure",
	"experiments":     "experiments",
	"feasibility":     "feasibility",
	"gossip":          "gossip",
	"groupcomm":       "groupcomm",
	"identity":        "identity",
	"metrics":         "metrics",
	"naming":          "naming",
	"obs":             "obs",
	"overload":        "overload",
	"replic":          "replic",
	"resil":           "resil",
	"simnet":          "simnet",
	"simnet/fault":    "fault",
	"storage":         "storage",
	"storage/chunker": "chunker",
	"webapp":          "webapp",
	"workload":        "workload",
}

// Layers that are not packages under internal/.
const (
	layerBench = "bench"         // this benchmark's own code (package main)
	layerGC    = "runtime.gc"    // background GC workers with no module frame
	layerOther = "runtime.other" // scheduler, profiler and other runtime work
)

// simnet sub-layers: the event heaps, the sharded engine's window barrier
// and inbox drain, RPC dispatch, and the send/serialize/deliver path.
var (
	heapFuncs = map[string]bool{
		"less": true, "swap": true, "push": true, "pop": true, "up": true,
		"down": true, "remove": true, "fix": true, "alloc": true, "free": true,
		"schedule": true,
	}
	linkFuncs = map[string]bool{
		"Send": true, "SendLane": true, "serialize": true, "noteQueue": true,
		"deliverEvent": true, "observeLatency": true, "noteLatency": true,
		"samePartition": true, "sendSharded": true, "scheduleArrival": true,
		"shardArriveEvent": true, "shardDeliverEvent": true, "shardDeliver": true,
		"UplinkBacklog": true,
	}
)

// splitFunc splits a fully qualified Go function name into its package
// path and its first name component after the receiver, dropping closure
// suffixes: "repro/internal/simnet.(*engine).less" gives
// ("repro/internal/simnet", "less").
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	pkg, rest := fn[:slash+1+dot], fn[slash+1+dot+1:]
	parts := strings.Split(rest, ".")
	if strings.HasPrefix(parts[0], "(") && len(parts) > 1 {
		return pkg, parts[1]
	}
	return pkg, parts[0]
}

// layerOf returns the layer a frame belongs to, or "" when the frame is
// outside this module.
func layerOf(fn, file string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPkg) {
		return layerBench
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	pkg, name := splitFunc(fn)
	layer, ok := packageLayers[strings.TrimPrefix(pkg, modulePrefix)]
	if !ok {
		return "other"
	}
	if layer != "simnet" {
		return layer
	}
	base := file[strings.LastIndexByte(file, '/')+1:]
	switch {
	case base == "rpc.go":
		return "simnet.rpc"
	case base == "scheduler.go" || (base == "shard.go" && heapFuncs[name]):
		return "simnet.heap"
	case linkFuncs[name]:
		return "simnet.link"
	case base == "shard.go":
		return "simnet.shard"
	}
	return "simnet"
}

// gcRoots are runtime entry points of work that belongs to the collector
// even when no module frame sits above it.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart"}

// profile holds the decoded parts of a pprof CPU profile this file needs.
type profile struct {
	strings   []string
	functions map[uint64][2]int64 // id -> (name, filename) string indexes
	locations map[uint64][]uint64 // id -> function ids, innermost first
	samples   []sample
}

type sample struct {
	locs   []uint64
	values []int64
}

// layerCPU decodes a gzipped CPU profile and returns CPU seconds per
// layer. Each sample goes to the innermost frame of this module, or to
// the GC or other runtime work when it has none.
func layerCPU(data []byte, into map[string]float64) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		into[p.attribute(s.locs)] += float64(s.values[1]) / 1e9
	}
	return nil
}

func (p *profile) attribute(locs []uint64) string {
	gc := false
	for _, loc := range locs {
		for _, fid := range p.locations[loc] {
			f := p.functions[fid]
			name, file := p.str(f[0]), p.str(f[1])
			if l := layerOf(name, file); l != "" {
				return l
			}
			for _, root := range gcRoots {
				if name == root {
					gc = true
				}
			}
		}
	}
	if gc {
		return layerGC
	}
	return layerOther
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{functions: map[uint64][2]int64{}, locations: map[uint64][]uint64{}}
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f [2]int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f[0] = int64(v)
				case 4:
					f[1] = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// appendPacked appends one varint field, or every varint of a packed one.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
