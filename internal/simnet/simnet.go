// Package simnet is a deterministic discrete-event network simulator. It is
// the substrate every distributed system in this repository runs on: the
// blockchain miners, the Kademlia DHT, the federated and P2P group
// communication models, the storage network, and the hostless web layer.
//
// The package is split into an engine and a substrate:
//
//   - The engine (scheduler.go) is a pure discrete-event scheduler: one
//     indexed-heap event queue keyed (at, origin, oseq), with cancellable,
//     reschedulable Timer handles and a pooled, closure-free hot path
//     (events carry an EventFunc handler plus argument, recycled through a
//     sync.Pool, so steady-state message traffic allocates nothing).
//     Protocols program against the Scheduler interface.
//   - The substrate (this file, node.go, rpc.go) models the network the
//     paper argues about — §4 "quality vs quantity": per-link propagation
//     latency with seeded jitter, per-node uplink/downlink bandwidth with
//     serialization queueing, message loss, node crash/restart and
//     exponential churn, and partitions.
//
// Both run on shards (shard.go): a shard is one event queue plus the
// traffic counters, latency histograms and observability registry of the
// events it runs. By default a network is one shard and runs on one
// goroutine. NetworkConfig{Shards, Workers} opts into the sharded engine,
// which spreads nodes over several shards run in parallel inside
// conservative virtual-time windows. The two modes share the heap, the
// event pool, Send and the delivery path; they differ only where shard.go
// documents it.
//
// Determinism and randomness. Given the same seed and workload a
// simulation is reproducible bit for bit, and a sharded one at every
// (Shards, Workers) layout. Randomness is split into per-node streams:
// node i draws from a SplitMix64 stream seeded with
// mix64(mix64(seed) + (i+1)·golden64) (see splitmix.go for the exact
// scheme and why the outer whitening step matters), so one node's
// stochastic behaviour does not depend on how other nodes' events
// interleave. The network-level stream (Network.Rand) serves harness-level
// workload generation and, in single-heap mode, substrate draws (loss,
// jitter); sharded nodes draw those from private substrate streams.
//
// Scale-out. Independent trials parallelize across cores with Trials
// (trials.go): each trial owns its whole Network, so parallelism is
// trial-level and per-seed results are identical at any worker count.
// Traffic is accounted per node (Node.Trace) and network-wide
// (Network.Trace), with per-kind delivery-latency histograms available via
// Network.LatencyHistogram.
package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// NodeID identifies a node within one Network.
type NodeID int

// Message is a simulated datagram. Payload is an arbitrary value passed by
// reference (the simulator never copies or serializes it); Size is the
// simulated wire size in bytes and is what bandwidth modelling charges for.
type Message struct {
	From, To NodeID
	Kind     string
	Payload  any
	Size     int
	// Lane selects the sender's uplink serialization class. The zero value
	// is the bulk lane, and lanes only matter on nodes that opted into the
	// priority uplink (Node.SetPriorityUplink), so historical traffic is
	// untouched.
	Lane Lane
}

// Lane identifies an uplink serialization class (see Node.SetPriorityUplink).
type Lane uint8

const (
	// LaneBulk is the default best-effort lane; all traffic historically
	// travelled here.
	LaneBulk Lane = iota
	// LaneCtrl is the strict-priority control lane: on a priority-enabled
	// uplink, control frames serialize ahead of any queued bulk backlog, so
	// a saturated server keeps its control plane (adverts, directory ops,
	// pings) responsive. On a default uplink LaneCtrl behaves exactly like
	// LaneBulk.
	LaneCtrl
)

// Handler processes a delivered message on the receiving node.
type Handler func(msg Message)

// LinkProfile describes the network attachment of a node (or the default
// for the whole network). The zero value is replaced by DatacenterProfile.
type LinkProfile struct {
	// Latency is the one-way propagation delay added to every message the
	// node sends. The effective delay between two nodes is the sum of both
	// endpoints' latencies (a crude but monotone RTT model).
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) to each message.
	Jitter time.Duration
	// UplinkBps and DownlinkBps are the serialization rates in bits/sec.
	// Zero means infinite (no serialization delay).
	UplinkBps   float64
	DownlinkBps float64
	// Loss is the independent drop probability per message in [0, 1).
	Loss float64
}

// DatacenterProfile approximates an intra/inter-datacenter attachment: low
// latency, 10 Gbps symmetric, lossless.
func DatacenterProfile() LinkProfile {
	return LinkProfile{Latency: 1 * time.Millisecond, Jitter: 500 * time.Microsecond, UplinkBps: 10e9, DownlinkBps: 10e9}
}

// HomeBroadbandProfile approximates the paper's §4 "slow broadband"
// user-device attachment: 25 ms latency, 20 Mbps down / 1 Mbps up, 0.5 %
// loss.
func HomeBroadbandProfile() LinkProfile {
	return LinkProfile{Latency: 25 * time.Millisecond, Jitter: 10 * time.Millisecond, UplinkBps: 1e6, DownlinkBps: 20e6, Loss: 0.005}
}

// MobileProfile approximates the paper's "slow 3G" mobile attachment:
// 80 ms latency, 4 Mbps down / 1 Mbps up, 2 % loss.
func MobileProfile() LinkProfile {
	return LinkProfile{Latency: 80 * time.Millisecond, Jitter: 40 * time.Millisecond, UplinkBps: 1e6, DownlinkBps: 4e6, Loss: 0.02}
}

// LinkFault describes in-flight message mangling applied network-wide, on
// top of the per-node LinkProfile loss model. The zero value injects
// nothing and costs nothing (no RNG draws), so networks that never set a
// fault keep their historical event streams bit for bit.
//
// Faults are decided per message at send time from the network-level RNG
// stream:
//
//   - Corrupt: with this probability the payload arrives wrapped in
//     Corrupted, so receivers' type assertions fail the way a
//     checksum-mangled frame would fail to parse. Handlers must tolerate
//     (not panic on) such garbage; the conformance suite asserts they do.
//   - Duplicate: with this probability a second copy of the message is
//     delivered HoldBack-uniform later, exercising at-most-once and
//     idempotency handling.
//   - Reorder: with this probability the message is held back an extra
//     uniform [0, HoldBack) beyond its computed arrival, letting later
//     sends overtake it.
type LinkFault struct {
	Corrupt   float64
	Duplicate float64
	Reorder   float64
	// HoldBack bounds the extra delay for reordered messages and duplicate
	// copies. Zero defaults to 50ms — enough to invert delivery order
	// against datacenter RTTs.
	HoldBack time.Duration
}

func (f LinkFault) active() bool { return f.Corrupt > 0 || f.Duplicate > 0 || f.Reorder > 0 }

func (f LinkFault) holdBack() time.Duration {
	if f.HoldBack <= 0 {
		return 50 * time.Millisecond
	}
	return f.HoldBack
}

// Corrupted wraps the payload of a message garbled in flight by a LinkFault.
// Receivers that type-assert their expected payload type see the assertion
// fail and should discard the message; protocol code must never assume
// payloads are well-formed once faults are in play.
type Corrupted struct {
	// Original is the payload the sender transmitted, kept for debugging
	// and tests; handlers should treat the message as unparseable garbage.
	Original any
}

// Network is a simulated network of nodes sharing one virtual clock. It
// embeds its own shard, whose engine makes it a Scheduler: in single-heap
// mode that shard runs every event and holds every counter; in sharded
// mode its heap is the control heap (see shard.go).
type Network struct {
	shard
	seed    int64
	rng     *rand.Rand
	nodes   []*Node
	defProf LinkProfile
	// partition maps node -> group id; nodes in different groups cannot
	// exchange messages. Empty map means no partition.
	partition map[NodeID]int
	fault     LinkFault
	// regionOf/regionExtra implement the opt-in inter-region delay matrix
	// (SetRegionMatrix). Both stay nil unless a geography is installed, so
	// the default send path is untouched.
	regionOf    map[NodeID]int
	regionExtra [][]time.Duration
	// queueMetrics opts the send path into recording uplink queue
	// depth/sojourn observations (EnableQueueMetrics). Off by default: the
	// observations create new registry entries, which would perturb the
	// exported snapshots of historical experiments.
	queueMetrics bool
	running      bool

	// shards are the shards that run node events: the network's own shard
	// alone in single-heap mode, NumShards separate ones in sharded mode.
	// Traffic totals and latency histograms are sums over them.
	shards  []*shard
	sharded bool
	workers int
	// minLat tracks the smallest profile Latency ever attached to a node;
	// it bounds the conservative lookahead (2·minLat) in sharded mode.
	minLat    time.Duration
	minLatSet bool
	// winEnd/inWindow/jobMode are the window coordinator's state: written
	// only between worker barriers, read by workers during a phase.
	winEnd   time.Duration
	inWindow bool
	jobMode  int
	jobs     chan int
	jobsWG   sync.WaitGroup
}

var _ Scheduler = (*Network)(nil)

// New creates a network whose randomness derives entirely from seed.
// Nodes added later default to DatacenterProfile.
func New(seed int64) *Network {
	return NewWithConfig(NetworkConfig{Seed: seed})
}

// NetworkConfig selects the engine layout. The zero value (plus a Seed) is
// the classic single-heap engine; Shards >= 1 opts into the sharded engine
// (shard.go), which partitions nodes across per-shard event heaps and runs
// them on Workers parallel goroutines inside conservative virtual-time
// windows. For a fixed Seed, sharded results are byte-identical at every
// (Shards, Workers) setting — Shards: 1 uses the same sharded semantics on
// a single heap, which is what makes it the honest baseline for the
// determinism suite and for speedup measurements.
type NetworkConfig struct {
	Seed int64
	// Shards partitions nodes (id mod Shards) across independent event
	// heaps. 0 selects the default single-heap engine; >= 1 the sharded
	// engine.
	Shards int
	// Workers is the parallel worker count for sharded execution; 0 means
	// GOMAXPROCS, and it is capped at Shards. Ignored in single-heap mode.
	Workers int
}

// NewWithConfig creates a network with an explicit engine layout; see
// NetworkConfig.
func NewWithConfig(cfg NetworkConfig) *Network {
	nw := &Network{
		seed:      cfg.Seed,
		rng:       networkRand(cfg.Seed),
		defProf:   DatacenterProfile(),
		partition: map[NodeID]int{},
		workers:   1,
	}
	// The label orders registries during cross-trial merges; the publish
	// hook keeps the per-message hot path free of registry work by copying
	// Trace totals and latency quantiles in only when a snapshot is taken.
	nw.shard.init(nw, 0, 0, fmt.Sprintf("seed:%d", cfg.Seed))
	nw.obs.OnPublish(nw.publishObs)
	nw.shards = []*shard{&nw.shard}
	if cfg.Shards >= 1 {
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		nw.sharded, nw.workers = true, min(w, cfg.Shards)
		nw.shards = make([]*shard, cfg.Shards)
		for i := range nw.shards {
			// Shard labels sort after the root "seed:N" label, keeping
			// merged exports stable regardless of shard count.
			nw.shards[i] = new(shard)
			nw.shards[i].init(nw, i, cfg.Shards, fmt.Sprintf("seed:%d/shard:%03d", cfg.Seed, i))
		}
	}
	return nw
}

// Sharded reports whether the network runs on the sharded engine.
func (nw *Network) Sharded() bool { return nw.sharded }

// NumShards returns the shard count (1 in single-heap mode).
func (nw *Network) NumShards() int { return len(nw.shards) }

// Workers returns the sharded engine's worker count (1 in single-heap mode).
func (nw *Network) Workers() int { return nw.workers }

// Obs returns the network's observability registry. Protocol layers
// resolve their named metrics once at construction (see Node.Obs) and
// update them live; Snapshot/merge export happens through internal/obs.
func (nw *Network) Obs() *obs.Registry { return nw.obs }

// publishObs mirrors the substrate's accumulated state into the registry.
// Runs on every Registry.Snapshot, so Set (not Add) keeps it idempotent.
func (nw *Network) publishObs(r *obs.Registry) {
	t := nw.Trace() // re-sums the shards
	r.Counter("net.msg.sent").Set(t.Sent)
	r.Counter("net.msg.delivered").Set(t.Delivered)
	r.Counter("net.msg.dropped").Set(t.Dropped)
	r.Counter("net.msg.unhandled").Set(t.Unhandled)
	r.Counter("net.bytes.sent").Set(t.BytesSent)
	r.Counter("net.bytes.delivered").Set(t.BytesDelivered)
	r.Counter("net.fault.corrupted").Set(t.Corrupted)
	r.Counter("net.fault.duplicated").Set(t.Duplicated)
	r.Counter("net.fault.reordered").Set(t.Reordered)
	r.Gauge("net.nodes").Set(float64(len(nw.nodes)))
	var crashes int64
	var downtime time.Duration
	for _, n := range nw.nodes {
		crashes += int64(n.crashes)
		downtime += n.downtime
	}
	r.Counter("net.node.crashes").Set(crashes)
	r.Gauge("net.node.downtime_s").Set(downtime.Seconds())
	// Map-iteration order is harmless here: each kind Sets independently
	// named values, and the registry export sorts by name.
	for kind, h := range nw.latencySnapshot() { //determinism:ok snapshot export, keys independent
		r.Counter("net.latency." + kind + ".count").Set(h.Count())
		r.Gauge("net.latency." + kind + ".p50_s").Set(h.Quantile(0.5))
		r.Gauge("net.latency." + kind + ".p95_s").Set(h.Quantile(0.95))
	}
}

// latencySnapshot returns the per-kind latency histograms, merged across
// shards bucket by bucket (sums, so shard layout cannot leak into the
// result) into fresh histograms.
func (nw *Network) latencySnapshot() map[string]*metrics.Histogram {
	out := map[string]*metrics.Histogram{}
	for _, sh := range nw.shards {
		for kind, h := range sh.latency { //determinism:ok merge is commutative per kind
			dst, ok := out[kind]
			if !ok {
				dst = newLatencyHistogram()
				out[kind] = dst
			}
			dst.Merge(h)
		}
	}
	return out
}

// SetDefaultProfile changes the link profile assigned to nodes added after
// this call.
func (nw *Network) SetDefaultProfile(p LinkProfile) { nw.defProf = p }

// Rand exposes the network-level RNG stream: substrate draws (loss,
// jitter) and harness-level workload generation. Protocol code running on
// a node should use Node.Rand instead, so the node's behaviour stays
// independent of global event interleaving.
func (nw *Network) Rand() *rand.Rand { return nw.rng }

// Seed returns the seed this network was created with.
func (nw *Network) Seed() int64 { return nw.seed }

// Trace returns the accumulated network-wide traffic counters, re-summed
// from the shards on every call (field sums are commutative, so the result
// is independent of shard layout); the returned pointer stays valid and is
// refreshed by subsequent calls.
func (nw *Network) Trace() *Trace {
	var t Trace
	for _, sh := range nw.shards {
		t.add(&sh.trace)
	}
	nw.trace = t
	return &nw.trace
}

// LatencyHistogram returns a snapshot of the delivery-latency histogram
// (in seconds) for a message kind, or nil if nothing of that kind has been
// delivered. Buckets are 10 ms wide over [0, 30s).
func (nw *Network) LatencyHistogram(kind string) *metrics.Histogram {
	return nw.latencySnapshot()[kind]
}

// LatencyKinds returns the message kinds with recorded delivery latencies,
// sorted, so the result cannot depend on shard layout.
func (nw *Network) LatencyKinds() []string {
	snap := nw.latencySnapshot()
	kinds := make([]string, 0, len(snap))
	for k := range snap { //determinism:ok result is sorted below
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// AddNode creates a node with the current default link profile.
func (nw *Network) AddNode() *Node {
	return nw.AddNodeWithProfile(nw.defProf)
}

// AddNodeWithProfile creates a node with an explicit link profile. The
// node receives its own deterministic RNG stream derived from (network
// seed, node id); see Node.Rand.
func (nw *Network) AddNodeWithProfile(p LinkProfile) *Node {
	id := NodeID(len(nw.nodes))
	n := &Node{
		id:       id,
		nw:       nw,
		profile:  p,
		rng:      nodeRand(nw.seed, id),
		up:       true,
		handlers: map[string]Handler{},
		sh:       nw.shards[int(id)%len(nw.shards)],
		srng:     nw.rng,
	}
	nw.noteLatency(p.Latency)
	if nw.sharded {
		n.origin = uint64(id) + 1
		n.srng = substrateRand(nw.seed, id)
	}
	nw.nodes = append(nw.nodes, n)
	return n
}

// noteLatency records a profile latency for the sharded engine's lookahead
// bound: the minimum over every profile ever attached is monotone
// non-increasing, so tracking the min at attach time is safe even when
// profiles change mid-run.
func (nw *Network) noteLatency(l time.Duration) {
	if !nw.minLatSet || l < nw.minLat {
		nw.minLat, nw.minLatSet = l, true
	}
}

// Node returns the node with the given id, or nil if out of range.
func (nw *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(nw.nodes) {
		return nil
	}
	return nw.nodes[id]
}

// NumNodes returns how many nodes have been added.
func (nw *Network) NumNodes() int { return len(nw.nodes) }

// Nodes returns the live slice of all nodes (do not mutate).
func (nw *Network) Nodes() []*Node { return nw.nodes }

// Run executes events until the queue empties or virtual time reaches
// until. It returns the virtual time at which it stopped. Calling Run or
// RunAll from inside an event panics.
func (nw *Network) Run(until time.Duration) time.Duration { return nw.run(until, false) }

// RunAll executes every queued event regardless of time. Useful for tests;
// on the single-heap engine it panics if the queue keeps growing beyond a
// large safety bound (the sharded huge tiers rely on RunAll without one).
func (nw *Network) RunAll() { nw.run(runAllHorizon, true) }

// runAllHorizon is the "no time bound" sentinel for RunAll: ~73 years of
// virtual nanoseconds, far beyond any workload.
const runAllHorizon = time.Duration(1) << 61

func (nw *Network) run(until time.Duration, runAll bool) time.Duration {
	if nw.running {
		panic("simnet: re-entrant Run")
	}
	nw.running = true
	defer func() { nw.running = false }()
	if nw.sharded {
		return nw.runSharded(until, runAll)
	}
	if runAll {
		const maxEvents = 50_000_000
		for count := 1; nw.step(); count++ {
			if count > maxEvents {
				panic("simnet: RunAll exceeded event safety bound; runaway schedule?")
			}
		}
		return nw.now
	}
	nw.runThrough(until)
	if len(nw.heap) > 0 || nw.now < until {
		nw.now = until
	}
	return nw.now
}

// Partition splits the network into groups; messages only flow within a
// group. Nodes not listed fall into group 0 alongside the first group.
//
// Drop semantics: a message sent across a partition boundary is dropped at
// send time (Send returns false) and never enters the event queue, so
// healing cannot revive it — senders must retry after the heal. A message
// that was already in flight when the partition appeared is re-checked at
// delivery time: it is dropped if its endpoints are then in different
// groups, and delivered normally if the partition has healed (or never
// separated them) by its arrival. Both kinds of drop are counted in the
// Trace.
func (nw *Network) Partition(groups ...[]NodeID) {
	nw.partition = map[NodeID]int{}
	for gi, g := range groups {
		for _, id := range g {
			nw.partition[id] = gi
		}
	}
}

// Heal removes any partition. Messages sent after the heal flow normally,
// and messages still in flight across the former boundary deliver; messages
// dropped at send time while partitioned stay lost (see Partition).
func (nw *Network) Heal() { nw.partition = map[NodeID]int{} }

// SetRegionMatrix installs an opt-in inter-region propagation-delay
// matrix: a message from a node in region a to a node in region b gains
// extra[a][b] of one-way delay on top of both endpoints' profile latency.
// Nodes absent from the assignment default to region 0. Passing an empty
// assignment (or empty matrix) removes the hook.
//
// The hook is default-off and draws no randomness either way, so a
// network that never installs a geography keeps its historical event
// stream bit for bit — the guarantee the pre-X18 experiment goldens rely
// on. internal/workload.RegionSet.Apply is the intended caller.
func (nw *Network) SetRegionMatrix(region map[NodeID]int, extra [][]time.Duration) {
	if len(region) == 0 || len(extra) == 0 {
		nw.regionOf, nw.regionExtra = nil, nil
		return
	}
	for _, row := range extra {
		if len(row) != len(extra) {
			panic("simnet: region matrix must be square")
		}
	}
	for id, r := range region { //determinism:ok validation only, no ordering effect
		if r < 0 || r >= len(extra) {
			panic(fmt.Sprintf("simnet: node %d assigned to region %d outside matrix [0, %d)", id, r, len(extra)))
		}
	}
	nw.regionOf, nw.regionExtra = region, extra
}

// EnableQueueMetrics starts recording per-send uplink queue observations
// into each sender's registry: a net.queue.depth gauge+histogram (messages
// queued on the uplink, including the one being recorded) and a
// net.queue.sojourn_s histogram (queueing plus serialization delay until
// the message departs). Like SetRegionMatrix, the hook is default-off and
// draws no randomness either way, so networks that never enable it keep
// their exported snapshots bit for bit — the guarantee the pre-X20
// experiment goldens rely on.
func (nw *Network) EnableQueueMetrics() { nw.queueMetrics = true }

// SetLinkFault installs f as the network-wide in-flight fault model;
// the zero LinkFault turns injection off.
func (nw *Network) SetLinkFault(f LinkFault) { nw.fault = f }

// LinkFault returns the current fault model.
func (nw *Network) LinkFault() LinkFault { return nw.fault }

func (nw *Network) samePartition(a, b NodeID) bool {
	if len(nw.partition) == 0 {
		return true
	}
	return nw.partition[a] == nw.partition[b]
}

// delivery carries an in-flight message through the pooled, closure-free
// event path: built on the sender's shard, consumed on the receiver's.
type delivery struct {
	nw     *Network
	msg    Message
	sentAt time.Duration
}

var deliveryPool = sync.Pool{New: func() any { return new(delivery) }}

// deliverEvent is the EventFunc for message delivery; arg is a pooled
// *delivery. It runs on the receiver's shard.
func deliverEvent(arg any) {
	d := arg.(*delivery)
	nw, msg, sentAt := d.nw, d.msg, d.sentAt
	*d = delivery{}
	deliveryPool.Put(d)

	dst := nw.nodes[msg.To]
	sh := dst.sh
	// Re-check state at delivery time: the receiver may have crashed, or a
	// partition may have appeared, while the message was in flight. In
	// sharded mode this is also where messages to already-down
	// destinations drop (see Send).
	if !dst.up || !nw.samePartition(msg.From, msg.To) {
		sh.trace.Dropped++
		dst.trace.Dropped++
		return
	}
	if _, garbled := msg.Payload.(Corrupted); garbled {
		sh.trace.Corrupted++
		dst.trace.Corrupted++
	}
	sh.trace.Delivered++
	sh.trace.BytesDelivered += int64(msg.Size)
	dst.trace.Delivered++
	dst.trace.BytesDelivered += int64(msg.Size)
	sh.observeLatency(msg.Kind, sh.now-sentAt)
	if h, ok := dst.handlers[msg.Kind]; ok {
		h(msg)
	} else if dst.defaultHandler != nil {
		dst.defaultHandler(msg)
	} else {
		sh.trace.Unhandled++
		dst.trace.Unhandled++
	}
}

// shardArriveEvent runs on the destination shard when a sharded message
// reaches the receiving host's link. Downlink serialization happens here,
// in arrival order on the destination's own clock; if the downlink delays
// the message, the final delivery is rescheduled under the receiver's key.
func shardArriveEvent(arg any) {
	d := arg.(*delivery)
	dst := d.nw.nodes[d.msg.To]
	if now := dst.sh.now; dst.profile.DownlinkBps > 0 {
		if at := dst.downlink(now, d.msg.Size); at > now {
			dst.sh.schedule(at, dst.origin, nil, deliverEvent, d)
			return
		}
	}
	deliverEvent(d)
}

// observeLatency records a delivery latency into this shard's histogram
// set. lastKind/lastLatency memoize the lookup: large-population traffic
// arrives in long runs of one kind (every DHT RPC shares "simnet.rpc"), so
// the per-delivery map lookup collapses to a string compare.
func (sh *shard) observeLatency(kind string, lat time.Duration) {
	if kind == sh.lastKind && sh.lastLatency != nil {
		sh.lastLatency.Observe(lat.Seconds())
		return
	}
	h, ok := sh.latency[kind]
	if !ok {
		h = newLatencyHistogram()
		sh.latency[kind] = h
	}
	sh.lastKind, sh.lastLatency = kind, h
	h.Observe(lat.Seconds())
}

// newLatencyHistogram returns an empty delivery-latency histogram: 10 ms
// buckets over [0, 30s), fine enough for RTT-scale traffic, wide enough
// that bandwidth-bound transfers rarely overflow. Every shard uses the
// same bounds, so shard merges are bucket-aligned.
func newLatencyHistogram() *metrics.Histogram { return metrics.NewHistogram(0, 30, 3000) }

// Send transmits a message. Delivery is scheduled according to both
// endpoints' link profiles; the message is silently dropped (and counted in
// the trace) if either endpoint is down, the endpoints are partitioned, or
// the loss draw fires. Send reports whether delivery was scheduled.
//
// Accounting: Sent/BytesSent and send-time drops are charged to the
// sending node's Trace; Delivered/BytesDelivered/Unhandled and in-flight
// drops to the receiving node's. The network-wide Trace sees everything.
//
// The sender-side half (uplink serialization, loss, jitter, fault draws)
// runs here on the sender's shard, drawing from the sender's substrate
// stream (the network stream in single-heap mode); delivery runs on the
// receiver's shard. The engines differ in two places only (see shard.go):
// where a message to a crashed destination drops, and where downlink
// serialization happens.
func (nw *Network) Send(msg Message) bool {
	src := nw.Node(msg.From)
	dst := nw.Node(msg.To)
	if src == nil || dst == nil {
		panic(fmt.Sprintf("simnet: send between unknown nodes %d -> %d", msg.From, msg.To))
	}
	sh, rng := src.sh, src.srng
	sh.trace.Sent++
	sh.trace.BytesSent += int64(msg.Size)
	src.trace.Sent++
	src.trace.BytesSent += int64(msg.Size)
	// The partition map only changes at barriers, so reading it from a
	// parallel window is stable. A sharded sender cannot read the
	// destination's liveness without racing the destination shard, so
	// there a message to a down node drops at delivery time instead.
	if !src.up || (!nw.sharded && !dst.up) || !nw.samePartition(msg.From, msg.To) {
		sh.trace.Dropped++
		src.trace.Dropped++
		return false
	}
	// Loss at either endpoint is an independent drop, so the combined
	// probability composes as 1-(1-pa)(1-pb) — summing would overstate the
	// rate (and can exceed 1). The draw happens before the uplink is
	// charged: a lost message never occupies the sender's uplink, so it
	// cannot delay later traffic.
	if pa, pb := src.profile.Loss, dst.profile.Loss; pa > 0 || pb > 0 {
		if p := 1 - (1-pa)*(1-pb); rng.Float64() < p {
			sh.trace.Dropped++
			src.trace.Dropped++
			return false
		}
	}

	// Serialization on the sender's uplink: the message waits for the
	// uplink to free, then occupies it for size/rate. Lane-aware on nodes
	// that enabled the priority uplink; plain FIFO otherwise. The cursors
	// and the queue-metric state are sender-owned.
	now := sh.now
	depart := now
	if src.profile.UplinkBps > 0 {
		ser := secondsToDuration(float64(msg.Size*8) / src.profile.UplinkBps)
		depart = src.serialize(msg.Lane, now, ser)
		if nw.queueMetrics {
			src.noteQueue(now, depart)
		}
	}
	// Propagation + jitter. An installed region matrix (opt-in; see
	// SetRegionMatrix) adds its pairwise inter-region delay.
	delay := src.profile.Latency + dst.profile.Latency
	if nw.regionOf != nil {
		delay += nw.regionExtra[nw.regionOf[msg.From]][nw.regionOf[msg.To]]
	}
	if j := src.profile.Jitter + dst.profile.Jitter; j > 0 {
		delay += time.Duration(rng.Int63n(int64(j)))
	}
	arrive := depart + delay
	// Serialization on the receiver's downlink: here, in global send
	// order, on the single-heap engine; on the destination shard, in
	// arrival order, on the sharded engine (shardArriveEvent).
	arrived := EventFunc(shardArriveEvent)
	if !nw.sharded {
		arrived = deliverEvent
		if dst.profile.DownlinkBps > 0 {
			arrive = dst.downlink(arrive, msg.Size)
		}
	}

	// In-flight fault injection. All draws are guarded by their probability,
	// so a zero LinkFault consumes no randomness and perturbs nothing.
	if f := nw.fault; f.active() {
		if f.Corrupt > 0 && rng.Float64() < f.Corrupt {
			msg.Payload = Corrupted{Original: msg.Payload}
		}
		if f.Reorder > 0 && rng.Float64() < f.Reorder {
			arrive += time.Duration(rng.Int63n(int64(f.holdBack())))
			sh.trace.Reordered++
		}
		if f.Duplicate > 0 && rng.Float64() < f.Duplicate {
			// The duplicate is a fault artifact, not a retransmission: it
			// skips link accounting and lands an extra hold-back later.
			sh.trace.Duplicated++
			extra := time.Duration(rng.Int63n(int64(f.holdBack())))
			nw.scheduleArrival(src, dst, msg, arrive+extra, arrived)
		}
	}
	nw.scheduleArrival(src, dst, msg, arrive, arrived)
	return true
}

// scheduleArrival builds the pooled delivery event for msg, keyed by the
// sender so equal-time arrivals at the destination order
// deterministically, and routes it to the destination's shard.
func (nw *Network) scheduleArrival(src, dst *Node, msg Message, at time.Duration, arrived EventFunc) {
	d := deliveryPool.Get().(*delivery)
	d.nw, d.msg, d.sentAt = nw, msg, src.sh.now
	src.sh.enqueue(dst.sh, src.sh.newEvent(at, src.origin, nil, arrived, d))
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Trace accumulates traffic statistics; the Network holds a network-wide
// instance and every Node holds its own.
type Trace struct {
	Sent           int64
	Delivered      int64
	Dropped        int64
	Unhandled      int64
	BytesSent      int64
	BytesDelivered int64
	// Fault-injection counters (see LinkFault). Corrupted and Duplicated
	// deliveries are also counted in Delivered; Reordered counts messages
	// held back, which still deliver exactly once.
	Corrupted  int64
	Duplicated int64
	Reordered  int64
}

// DeliveryRate returns Delivered/Sent, or 0 when nothing was sent.
func (t *Trace) DeliveryRate() float64 {
	if t.Sent == 0 {
		return 0
	}
	return float64(t.Delivered) / float64(t.Sent)
}

// Reset zeroes all counters.
func (t *Trace) Reset() { *t = Trace{} }

// add accumulates o's counters into t (the shard-merge primitive; field
// sums are commutative, so merge order never matters).
func (t *Trace) add(o *Trace) {
	t.Sent += o.Sent
	t.Delivered += o.Delivered
	t.Dropped += o.Dropped
	t.Unhandled += o.Unhandled
	t.BytesSent += o.BytesSent
	t.BytesDelivered += o.BytesDelivered
	t.Corrupted += o.Corrupted
	t.Duplicated += o.Duplicated
	t.Reordered += o.Reordered
}
