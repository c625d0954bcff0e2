package simnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// This file holds the shard, the execution context both engine modes run
// on, and the sharded mode's window runner. A shard is one event heap
// (scheduler.go) plus the accounting of the events it runs. The default
// single-heap engine is one shard, embedded in the Network, that runs
// every event. The opt-in sharded engine (NetworkConfig{Shards, Workers})
// partitions nodes across NumShards shards and runs independent shards on
// parallel workers inside a conservative virtual-time window, with the
// Network's own heap serving as the control heap; the merged execution is
// bit-for-bit reproducible across every (Shards, Workers) setting.
//
// # Why the merged execution is deterministic
//
// Three disciplines combine, each independent of the shard layout:
//
//  1. Ordering keys instead of insertion order. Every node event is keyed
//     (at, origin, oseq): the virtual time, the scheduling node (id + 1),
//     and that node's private monotone counter; control events use origin
//     0 and the control heap's counter. A shard always pops its heap in
//     key order, so the sequence of events *each node* observes is a pure
//     function of the seed — the key never encodes which shard or worker
//     produced it. (The Trials runner proves this merge discipline at
//     trial granularity; the key is what lets us apply it within one.)
//
//  2. A conservative synchronization window. Any message between two nodes
//     takes at least lookahead = 2·min(profile latency) of virtual time
//     (both endpoints' latencies are summed; uplink serialization, region
//     matrices, jitter, and reorder hold-back only add). A window runs
//     every event with at < W = min(heap) + lookahead, so nothing executed
//     during the window can schedule work that another shard should have
//     run *within* the same window: all arrivals land at ≥ W. Cross-shard
//     sends are staged in per-(src,dst) outboxes and merged into the
//     destination heap at the window barrier; because heaps order by key,
//     merge timing and outbox traversal order are immaterial.
//
//  3. No shared draws or shared mutable state between barriers. Substrate
//     randomness (loss, jitter, fault draws) comes from the *sender's*
//     dedicated substrate stream, not the network stream, so draw order
//     per node equals that node's deterministic event order. Traffic
//     counters and latency histograms are per-shard and merge by
//     commutative sums. Global state (partitions, the fault model, link
//     profiles, clock skew) may only change through control events —
//     Network.Schedule/After and fault.Plan land there — which execute
//     with every shard synchronized at the same virtual instant. Node code
//     that calls Network.Schedule/After from inside a window panics.
//
// The single-heap engine keys every event with origin 0, so it runs in
// global schedule order and draws substrate randomness from the one
// network stream. Beyond that, the modes differ in two intentional
// semantics (both consistent across all sharded configurations): a
// message to a crashed destination is dropped at delivery time on the
// destination shard rather than at send time (the sender cannot read
// remote liveness without a race), and receiver downlink serialization
// queues messages in arrival order at the destination rather than in
// global send order.

// shard is one execution context: an event heap and clock, plus the
// traffic counters, latency histograms, and observability registry of the
// events it runs. In sharded mode it owns the nodes assigned to it (node
// id mod NumShards): all of a node's events — its timers and the
// deliveries addressed to it — execute on its shard, single-threaded.
type shard struct {
	engine
	idx int
	// outbox[d] holds events this shard scheduled onto shard d during the
	// current window; the barrier merge (drainInboxes) moves them into d's
	// heap. Only shard d touches outbox[d] during the merge phase, so the
	// two phases never race.
	outbox [][]*event
	trace  Trace
	// latency holds per-message-kind delivery latency histograms, created
	// lazily on first delivery of each kind (see observeLatency).
	latency     map[string]*metrics.Histogram
	lastKind    string
	lastLatency *metrics.Histogram
	// obs is the shard's registry: protocol layers on this shard's nodes
	// annotate it without cross-shard contention; MergeRegistries folds
	// all registries together order-independently at export.
	obs *obs.Registry
}

// init sets sh up as shard idx of nw with the given outbox count (zero
// for the network's own shard) and attaches its registry under label.
func (sh *shard) init(nw *Network, idx, outboxes int, label string) {
	sh.nw, sh.idx = nw, idx
	sh.outbox = make([][]*event, outboxes)
	sh.latency = map[string]*metrics.Histogram{}
	sh.obs = obs.NewRegistry()
	sh.obs.SetLabel(label)
	obs.AttachCurrent(sh.obs)
}

// enqueue routes an already-built event to its destination shard. Within a
// parallel window, cross-shard events are staged in the outbox (and must
// respect the lookahead, or parallel execution would have needed them
// mid-window); outside a window — harness code and barrier-synced control
// events — the destination heap is safe to push into directly.
func (sh *shard) enqueue(dst *shard, e *event) {
	if dst == sh || !sh.nw.inWindow {
		dst.push(e)
		return
	}
	if e.at < sh.nw.winEnd {
		panic(fmt.Sprintf("simnet: lookahead violation: cross-shard event at %v inside window ending %v", e.at, sh.nw.winEnd))
	}
	sh.outbox[dst.idx] = append(sh.outbox[dst.idx], e)
}

// drainInboxes is the window-barrier merge point: it moves every event the
// other shards staged for this shard into the local heap. Insertion order
// is immaterial — the heap orders by (at, origin, oseq) — so traversing
// sources in index order is a convenience, not a correctness requirement.
func (sh *shard) drainInboxes() {
	for _, src := range sh.nw.shards {
		box := src.outbox[sh.idx]
		if len(box) == 0 {
			continue
		}
		for i, e := range box {
			sh.push(e)
			box[i] = nil
		}
		src.outbox[sh.idx] = box[:0]
	}
}

// --- conservative window runner ------------------------------------------

// Job modes for the worker pool. The mode is written by the coordinator
// before dispatch and read by workers after the channel receive, so the
// channel's happens-before edge publishes it.
const (
	jobWindow = iota
	jobMerge
)

// runSharded is the sharded Run/RunAll loop: alternate barrier-synced
// control events with parallel conservative windows until the queues empty
// or virtual time passes until.
func (nw *Network) runSharded(until time.Duration, runAll bool) time.Duration {
	la := nw.shardLookahead()
	stop := nw.startWorkers()
	defer stop()

	for {
		shardMin, haveNode := nw.earliestShardEvent()
		ctrlT, haveCtrl := nw.peekTime()
		if !haveNode && !haveCtrl {
			break
		}
		next := shardMin
		if !haveNode || (haveCtrl && ctrlT < next) {
			next = ctrlT
		}
		if !runAll && next > until {
			break
		}
		if haveCtrl && (!haveNode || ctrlT <= shardMin) {
			// Control events (harness Schedule/After, fault plans) execute
			// with every shard synchronized at ctrlT and run before any
			// node event at the same instant — the global-state mutation
			// point the window protocol relies on.
			nw.syncClocks(ctrlT)
			nw.runThrough(ctrlT)
			continue
		}
		w := shardMin + la
		if haveCtrl && ctrlT < w {
			w = ctrlT
		}
		if !runAll && w > until {
			w = until + 1 // the window is half-open; events at exactly `until` still run
		}
		nw.winEnd = w
		nw.inWindow = true
		nw.jobMode = jobWindow
		nw.dispatch()
		nw.jobMode = jobMerge
		nw.dispatch()
		nw.inWindow = false
	}
	if runAll {
		// Settle on the furthest shard clock (not the horizon sentinel), so
		// RunAll leaves Now at the last executed event, like the legacy path.
		var last time.Duration
		for _, sh := range nw.shards {
			if sh.now > last {
				last = sh.now
			}
		}
		nw.syncClocks(last)
	} else {
		nw.syncClocks(until)
	}
	return nw.now
}

// shardLookahead returns the conservative window size: twice the minimum
// link-profile latency ever attached to a node. Every message spends at
// least the sum of both endpoints' latencies in flight, and everything
// else in the delay model (uplink queueing, jitter, region matrices,
// reorder hold-back, downlink queueing) only adds — so no event executed
// inside a window can require delivery within that same window.
func (nw *Network) shardLookahead() time.Duration {
	if !nw.minLatSet {
		// No nodes yet: only control events can exist, and those run at
		// barriers; any positive lookahead is correct.
		return time.Second
	}
	if nw.minLat <= 0 {
		panic("simnet: sharded mode requires a positive Latency on every link profile (zero latency makes the conservative lookahead vanish)")
	}
	return 2 * nw.minLat
}

func (nw *Network) earliestShardEvent() (time.Duration, bool) {
	var best time.Duration
	have := false
	for _, sh := range nw.shards {
		if t, ok := sh.peekTime(); ok && (!have || t < best) {
			best, have = t, true
		}
	}
	return best, have
}

// syncClocks advances (never rewinds) the global and per-shard clocks to t.
func (nw *Network) syncClocks(t time.Duration) {
	if t > nw.now {
		nw.now = t
	}
	for _, sh := range nw.shards {
		if t > sh.now {
			sh.now = t
		}
	}
}

// startWorkers spawns the window worker pool for one Run invocation and
// returns its shutdown function. With one worker (or one shard) the
// dispatch loop runs inline — no goroutines, no synchronization — which is
// also what makes 1-worker timing runs clean baselines.
func (nw *Network) startWorkers() func() {
	k := nw.workers
	if k <= 1 {
		return func() {}
	}
	jobs := make(chan int, len(nw.shards))
	nw.jobs = jobs
	var exit sync.WaitGroup
	for i := 0; i < k; i++ {
		exit.Add(1)
		go func() {
			defer exit.Done()
			for idx := range jobs {
				nw.runJob(idx)
				nw.jobsWG.Done()
			}
		}()
	}
	return func() {
		close(jobs)
		nw.jobs = nil
		exit.Wait()
	}
}

// dispatch fans the current job mode across every shard and waits for the
// batch — the barrier between window execution and outbox merging.
func (nw *Network) dispatch() {
	if nw.jobs == nil {
		for i := range nw.shards {
			nw.runJob(i)
		}
		return
	}
	nw.jobsWG.Add(len(nw.shards))
	for i := range nw.shards {
		nw.jobs <- i
	}
	nw.jobsWG.Wait()
}

func (nw *Network) runJob(idx int) {
	sh := nw.shards[idx]
	switch nw.jobMode {
	case jobWindow:
		sh.runThrough(nw.winEnd - 1) // the window is half-open
	case jobMerge:
		sh.drainInboxes()
	}
}
