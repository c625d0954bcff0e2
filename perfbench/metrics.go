package main

// metricDef declares one reported metric. The tables below are the single
// source of the names, units and bounds in BENCHMARK.json;
// TestManifestMatchesTables keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees, measured with tracing
// off. Host metrics time the simulator on this machine in elapsed seconds;
// each is a per-round figure, the mean over the seed's sub-seeds of the
// median over that sub-seed's rounds. Sim metrics are what the modelled
// system did in virtual time and repeat exactly for a fixed seed. Each
// bound is three times the largest spread (quartile distance over median)
// seen over ten runs on ten seeds, capped at 0.25; on the 2-vCPU reference
// machine the host timings drift with other tenants' load by up to 15%
// between runs, so wall_s, ops_per_s and setup_s sit at the cap.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},           // host: elapsed seconds of one round's timed phase
	{"setup_s", "s", "lower", 0.25},          // host: elapsed seconds to build one round's world
	{"ops_per_s", "1/s", "higher", 0.25},     // host: ledger blocks, flash and swarm simnet messages, store object transfers, per elapsed second
	{"alloc_mb", "MB", "lower", 0.25},        // host: bytes allocated in one timed phase
	{"peak_heap_mb", "MB", "lower", 0.25},    // host: peak live heap in one timed phase
	{"sim_ok_ratio", "ratio", "higher", 0.1}, // sim: operations that met their goal / launched
	{"sim_p50_s", "sim_s", "lower", 0.1},     // sim: median operation latency in virtual seconds
	{"sim_p99_s", "sim_s", "lower", 0.25},    // sim: 99th percentile operation latency
}

// perLayer comes from the traced run. Counts are exact and repeat run to
// run; busy_s is span time per round around the benchmark's calls into a
// layer; cpu_s is profile time per round charged to the layer; the *_per_s
// rates are a layer's work per elapsed second of the untraced timed phase.
var perLayer = []metricDef{
	{"blocks_per_s", "1/s", "higher", 0},
	{"msgs_per_s", "1/s", "higher", 0},
	{"store_mb_per_s", "MB/s", "higher", 0},
	{"chain.pay.busy_s", "s", "lower", 0},
	{"chain.select.calls", "count", "lower", 0},
	{"chain.select.busy_s", "s", "lower", 0},
	{"chain.select.pool_len", "count", "lower", 0},
	{"chain.newblock.busy_s", "s", "lower", 0},
	{"chain.grind.hashes", "count", "lower", 0},
	{"chain.addblock.calls", "count", "lower", 0},
	{"chain.addblock.busy_s", "s", "lower", 0},
	{"chain.addblock.rejected", "count", "lower", 0},
	{"chain.spv_sync.busy_s", "s", "lower", 0},
	{"chain.reorgs", "count", "lower", 0},
	{"chain.cpu_s", "s", "lower", 0},
	{"cryptoutil.cpu_s", "s", "lower", 0},
	{"simnet.run.busy_s", "s", "lower", 0},
	{"simnet.cpu_s", "s", "lower", 0},
	{"simnet.heap.cpu_s", "s", "lower", 0},
	{"simnet.rpc.cpu_s", "s", "lower", 0},
	{"simnet.link.cpu_s", "s", "lower", 0},
	{"simnet.shard.cpu_s", "s", "lower", 0},
	{"simnet.shard.speedup", "ratio", "higher", 0},
	{"simnet.msgs.delivered", "count", "lower", 0},
	{"simnet.msgs.dropped", "count", "lower", 0},
	{"simnet.queue.sojourn_p99_s", "sim_s", "lower", 0},
	{"resil.calls", "count", "lower", 0},
	{"resil.retry.count", "count", "lower", 0},
	{"resil.hedge.fired", "count", "lower", 0},
	{"resil.hedge.won", "count", "higher", 0},
	{"resil.breaker.open", "count", "lower", 0},
	{"resil.shed.count", "count", "lower", 0},
	{"resil.attempts_per_call", "ratio", "lower", 0},
	{"resil.cpu_s", "s", "lower", 0},
	{"overload.offered", "count", "lower", 0},
	{"overload.admitted", "count", "higher", 0},
	{"overload.shed", "count", "lower", 0},
	{"overload.codel.dropped", "count", "lower", 0},
	{"overload.admit_ratio", "ratio", "higher", 0},
	{"overload.queue.wait_p99_s", "sim_s", "lower", 0},
	{"overload.cpu_s", "s", "lower", 0},
	{"replic.replicas.created", "count", "lower", 0},
	{"replic.advert.sent", "count", "lower", 0},
	{"replic.route.nearest_hit_ratio", "ratio", "higher", 0},
	{"replic.cpu_s", "s", "lower", 0},
	{"workload.generate.busy_s", "s", "lower", 0},
	{"workload.cpu_s", "s", "lower", 0},
	{"fault.cpu_s", "s", "lower", 0},
	{"dht.lookups", "count", "lower", 0},
	{"dht.lookup.failed", "count", "lower", 0},
	{"dht.lookup.hops_p50", "count", "lower", 0},
	{"dht.cpu_s", "s", "lower", 0},
	{"gossip.delivered", "count", "higher", 0},
	{"gossip.dup_ratio", "ratio", "lower", 0},
	{"gossip.cpu_s", "s", "lower", 0},
	{"storage.upload.calls", "count", "lower", 0},
	{"storage.upload.busy_s", "s", "lower", 0},
	{"storage.download.busy_s", "s", "lower", 0},
	{"storage.download.calls", "count", "lower", 0},
	{"storage.upload.failed", "count", "lower", 0},
	{"storage.download.failed", "count", "lower", 0},
	{"storage.localstore.dedup_ratio", "ratio", "higher", 0},
	{"storage.localstore.hit_ratio", "ratio", "higher", 0},
	{"storage.localstore.gc_reclaimed_mb", "MB", "lower", 0},
	{"chunker.bytes", "count", "lower", 0},
	{"storage.cpu_s", "s", "lower", 0},
	{"chunker.cpu_s", "s", "lower", 0},
	{"erasure.cpu_s", "s", "lower", 0},
	{"obs.cpu_s", "s", "lower", 0},
	{"metrics.cpu_s", "s", "lower", 0},
	{"bench.cpu_s", "s", "lower", 0},
	{"runtime.other_cpu_s", "s", "lower", 0},
	{"runtime.gc_cpu_s", "s", "lower", 0},
	{"runtime.allocs", "count", "lower", 0},
	{"sim.samples", "count", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}
