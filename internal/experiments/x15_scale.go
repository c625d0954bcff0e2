package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/gossip"
	"repro/internal/simnet"
)

// X15: the scale sweep. The paper's thesis is population-dependent — the
// IPFS measurement literature shows DHT and gossip behaviour only becomes
// interesting at thousands of peers, and the ROADMAP north-star demands
// runs "as fast as the hardware allows" — so this experiment drives each
// substrate subsystem across N ∈ {100, 1k, 5k, 10k} and reports, per cell,
// the convergence rate (did the protocol still do its job at that
// population?) and the delivered message volume, plus wall time and
// allocations when timing is enabled. The convergence and traffic numbers
// are seed-deterministic and flow into the bench gate; the timing columns
// are machine-dependent and therefore opt-in (cmd/feudalism -timing).

// wallClock supplies monotonic wall-clock nanoseconds for X15's timing
// columns. It is nil by default so everything under internal/ stays free of
// time.Now (the determinism lint enforces this); cmd/feudalism injects the
// real clock behind its -timing flag.
var wallClock func() int64

// SetWallClock installs the wall-clock source used by the X15 table's
// timing columns (nil disables them). The injected clock affects only the
// rendered text, never the exported metrics, so bench output stays
// byte-reproducible regardless.
func SetWallClock(f func() int64) { wallClock = f }

// ScaleTiers returns the sweep's population axis: the full experiment runs
// 100 → 10,000 nodes, the tiny variant keeps the same shape at test scale.
func ScaleTiers(tiny bool) []int {
	if tiny {
		return []int{30, 60}
	}
	return []int{100, 1000, 5000, 10000}
}

// ScaleSubsystems returns the sweep's subsystem axis, in presentation
// order: the raw RPC substrate, then the two discovery/dissemination
// protocols built on it.
func ScaleSubsystems() []string { return []string{"simnet", "dht", "gossip"} }

// ScaleCell is one (subsystem, N) measurement.
type ScaleCell struct {
	N         int
	Converged float64 // fraction of probes satisfied, in [0, 1]
	Messages  int64   // substrate messages delivered during the run
	WallNS    int64   // wall time; -1 when timing is disabled
	Allocs    uint64  // heap allocations; meaningful only with timing
}

// ScaleCellRun executes one cell of the sweep. Exported so the scale-test
// matrix drives exactly the experiment's workloads.
func ScaleCellRun(subsystem string, seed int64, n int) ScaleCell {
	return scaleCellOn(subsystem, n, func() *simnet.Network { return simnet.New(seed) })
}

// ScaleCellRunSharded is ScaleCellRun on the sharded engine: the same
// workloads on a network built with NetworkConfig{Shards, Workers}. The
// huge tiers (ScaleHugeTiers) run through this path; results are identical
// at every (Shards, Workers) setting but differ from the single-heap
// engine's (substrate draws come from per-node streams there — see
// simnet/shard.go), so sharded and unsharded cells are never compared.
func ScaleCellRunSharded(subsystem string, seed int64, n, shards, workers int) ScaleCell {
	return scaleCellOn(subsystem, n, func() *simnet.Network {
		return simnet.NewWithConfig(simnet.NetworkConfig{Seed: seed, Shards: shards, Workers: workers})
	})
}

func scaleCellOn(subsystem string, n int, mk func() *simnet.Network) ScaleCell {
	switch subsystem {
	case "simnet":
		return timedCell(n, func() (float64, int64) { return scaleSimnet(mk(), n) })
	case "dht":
		return timedCell(n, func() (float64, int64) { return scaleDHT(mk(), n) })
	case "gossip":
		return timedCell(n, func() (float64, int64) { return scaleGossip(mk(), n) })
	}
	panic("x15: unknown subsystem " + subsystem)
}

// timedCell wraps one cell workload with the opt-in wall/alloc measurement.
func timedCell(n int, run func() (float64, int64)) ScaleCell {
	cell := ScaleCell{N: n, WallNS: -1}
	var before runtime.MemStats
	var start int64
	if wallClock != nil {
		runtime.ReadMemStats(&before)
		start = wallClock()
	}
	cell.Converged, cell.Messages = run()
	if wallClock != nil {
		cell.WallNS = wallClock() - start
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		cell.Allocs = after.Mallocs - before.Mallocs
	}
	return cell
}

// scaleSimnet exercises the raw RPC hot path: every node echoes a few
// calls off its ring neighbour. Convergence is the fraction of calls that
// complete; at any population the substrate should be lossless.
func scaleSimnet(nw *simnet.Network, n int) (float64, int64) {
	const callsPerNode = 3
	rpcs := make([]*simnet.RPCNode, n)
	for i := range rpcs {
		rpcs[i] = simnet.NewRPCNode(nw.AddNode())
		rpcs[i].Serve("x15.echo", func(from simnet.NodeID, req any) (any, int) {
			return req, 8
		})
	}
	// One slot per call: callbacks run on the caller's shard worker, so a
	// shared counter would race on the sharded engine.
	ok := make([]bool, n*callsPerNode)
	for i, r := range rpcs {
		to := rpcs[(i+1)%n].Node().ID()
		for c := 0; c < callsPerNode; c++ {
			slot := i*callsPerNode + c
			r.Call(to, "x15.echo", c, 16, 5*time.Second, func(_ any, err error) {
				ok[slot] = err == nil
			})
		}
	}
	nw.RunAll()
	return float64(countTrue(ok)) / float64(n*callsPerNode), delivered(nw)
}

// scaleDHT grows a Kademlia population to N, stores a key set, and probes
// whether distant readers can still resolve every key. Small k keeps the
// per-node state realistic for device-grade participants.
func scaleDHT(nw *simnet.Network, n int) (float64, int64) {
	const (
		nKeys    = 12
		nReaders = 24
	)
	cfg := dht.Config{K: 8, Alpha: 3, RequestTimeout: 2 * time.Second}
	peers := make([]*dht.Peer, n)
	for i := range peers {
		peers[i] = dht.NewPeer(nw.AddNode(), dht.Key{}, cfg)
	}
	// Staggered joins through the anchor: 20 ms apart keeps concurrent
	// bootstrap traffic bounded while the virtual clock absorbs the rest.
	for i := 1; i < len(peers); i++ {
		p := peers[i]
		nw.After(time.Duration(i)*20*time.Millisecond, func() {
			p.Bootstrap(peers[0].Contact(), nil)
		})
	}
	nw.RunAll()
	keys := make([]dht.Key, nKeys)
	for i := range keys {
		keys[i] = cryptoutil.SumHash([]byte(fmt.Sprintf("x15-key-%d", i)))
		peers[0].Put(keys[i], []byte{byte(i)}, nil)
	}
	nw.RunAll()

	stride := n / nReaders
	if stride == 0 {
		stride = 1
	}
	// One slot per lookup, as in scaleSimnet.
	found := make([]bool, 0, nReaders*nKeys)
	for r := 1; r < n && len(found) < nReaders*nKeys; r += stride {
		for _, k := range keys {
			slot := len(found)
			found = append(found, false)
			peers[r].Get(k, func(_ []byte, f bool) { found[slot] = f })
		}
	}
	nw.RunAll()
	return float64(countTrue(found)) / float64(len(found)), delivered(nw)
}

// scaleGossip floods items over a chord-style overlay (ring + power-of-two
// long links, out-degree ≤ 8, so diameter stays O(log N)) with anti-entropy
// repair, and measures the fraction of (member, item) pairs delivered.
func scaleGossip(nw *simnet.Network, n int) (float64, int64) {
	const nItems = 8
	members := make([]*gossip.Member, n)
	ids := make([]simnet.NodeID, n)
	for i := range members {
		node := nw.AddNode()
		ids[i] = node.ID()
		members[i] = gossip.NewMember(node, gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
	}
	offsets := chordOffsets(n)
	for i, m := range members {
		peers := make([]simnet.NodeID, 0, len(offsets))
		for _, off := range offsets {
			peers = append(peers, ids[(i+off)%n])
		}
		m.SetPeers(peers)
	}
	items := make([]gossip.Item, nItems)
	for i := range items {
		data := fmt.Sprintf("x15-item-%d", i)
		items[i] = gossip.Item{ID: cryptoutil.SumHash([]byte(data)), Data: data, Size: len(data)}
		it := items[i]
		src := members[(i*n)/nItems]
		nw.Schedule(time.Duration(i)*15*time.Second, func() { src.Publish(it) })
	}
	nw.Run(5 * time.Minute)

	have, total := 0, 0
	for _, m := range members {
		for _, it := range items {
			total++
			if m.Has(it.ID) {
				have++
			}
		}
	}
	return float64(have) / float64(total), delivered(nw)
}

// chordOffsets returns ring steps {1, 2, 4, ...} capped at 8 links and at
// the population size, giving every member a deterministic small-world
// out-neighbourhood.
func chordOffsets(n int) []int {
	var offs []int
	for off := 1; off < n && len(offs) < 8; off *= 2 {
		offs = append(offs, off)
	}
	if len(offs) == 0 {
		offs = []int{0}
	}
	return offs
}

// delivered reads the substrate's delivered-message total for the run.
func delivered(nw *simnet.Network) int64 { return nw.Trace().Delivered }

// countTrue counts the set slots of a per-call outcome slice.
func countTrue(slots []bool) int {
	n := 0
	for _, ok := range slots {
		if ok {
			n++
		}
	}
	return n
}

// scaleMatrix is the numeric core of X15: rows are subsystems, columns
// alternate "N=<tier> conv%" and "N=<tier> msg/node" so one Matrix carries
// both measures through AggregateSeeds. Timing never enters the matrix —
// it is machine-dependent and would poison the multi-seed aggregates.
func scaleMatrix(seed int64, tiny bool) Matrix {
	tiers := ScaleTiers(tiny)
	subs := ScaleSubsystems()
	cols := make([]string, 0, 2*len(tiers))
	for _, n := range tiers {
		cols = append(cols, fmt.Sprintf("N=%d conv%%", n), fmt.Sprintf("N=%d msg/node", n))
	}
	m := NewMatrix(subs, cols)
	for r, sub := range subs {
		for c, n := range tiers {
			cell := ScaleCellRun(sub, seed, n)
			m.Vals[r][2*c] = cell.Converged * 100
			m.Vals[r][2*c+1] = float64(cell.Messages) / float64(n)
		}
	}
	return m
}

// ScaleSweep renders the single-seed X15 table. With a wall clock installed
// (cmd/feudalism -timing) each cell also shows wall seconds and heap
// allocations; without one the output is a pure function of the seed.
func ScaleSweep(seed int64, tiny bool) *Table {
	tiers := ScaleTiers(tiny)
	subs := ScaleSubsystems()
	headers := []string{"Subsystem"}
	for _, n := range tiers {
		headers = append(headers, fmt.Sprintf("N=%d", n))
	}
	title := "X15: scale sweep — convergence %, messages/node per subsystem × population"
	if tiny {
		title = "X15 (tiny): scale sweep"
	}
	t := &Table{Title: title, Headers: headers}
	for _, sub := range subs {
		row := []any{sub}
		for _, n := range tiers {
			cell := ScaleCellRun(sub, seed, n)
			text := fmt.Sprintf("%.1f%% %.0fm/n", cell.Converged*100, float64(cell.Messages)/float64(n))
			if cell.WallNS >= 0 {
				text += fmt.Sprintf(" %.2fs %s", float64(cell.WallNS)/1e9, humanCount(cell.Allocs))
			}
			row = append(row, text)
		}
		t.Add(row...)
	}
	return t
}

// ScaleSweepMulti is X15 aggregated over a batch of seeds on `workers`
// parallel trial runners (0 = GOMAXPROCS).
func ScaleSweepMulti(seeds []int64, workers int, tiny bool) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix {
		return scaleMatrix(seed, tiny)
	})
	formats := make([]string, 0, len(agg.Cols))
	for range ScaleTiers(tiny) {
		formats = append(formats, "%.1f%%", "%.0f")
	}
	return agg.Table(
		"X15: scale sweep — convergence %, messages/node per subsystem × population",
		"Subsystem", formats...)
}

// humanCount renders an allocation count compactly (12.3k, 4.5M).
func humanCount(v uint64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fMalloc", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fkalloc", float64(v)/1e3)
	}
	return fmt.Sprintf("%dalloc", v)
}
