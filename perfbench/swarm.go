package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// swarm runs on the sharded engine (64 shards, Workers = nproc): a
// Kademlia population whose peers store keys and then look them up at a
// fixed virtual cadence, plus a gossip flood over a chord overlay. Every
// lookup launches from its peer's own timer, so lookups run in parallel
// on the shard workers; each peer writes only its own result slot, and
// the slots are summed after Run. It is the only multi-threaded workload.
const (
	swarmPeers      = 1200
	swarmShards     = 64
	swarmKeys       = 48
	swarmLookups    = 3 // per peer
	swarmCadence    = 2 * time.Second
	swarmJoinEvery  = 4 * time.Millisecond
	swarmItems      = 8
	swarmItemBytes  = 512
	swarmValueBytes = 64
)

var swarmWorkload = workloadSpec{
	name:    "swarm",
	setup:   newSwarm,
	sharded: true,
	why:     "sharded engine, 64 shards, Workers=nproc: dht peers look up keys at a fixed cadence plus a gossip flood; the only multi-threaded load; loads simnet shard barrier, dht, gossip",
}

// swarmSlot is one peer's lookup results. Only that peer's shard writes
// it, which keeps the counters race-free under parallel workers.
type swarmSlot struct {
	Launched, Found, Wrong int
	Lat                    []float64
	Hops                   []float64 // query rounds per lookup
}

type swarmWorld struct {
	nw        *simnet.Network
	slots     []swarmSlot
	until     time.Duration
	delivered int64 // messages delivered in the timed phase
	published int
}

func newSwarm(seed int64, workers int, _ *tracer) world {
	nw := simnet.NewWithConfig(simnet.NetworkConfig{Seed: seed, Shards: swarmShards, Workers: workers})
	nw.EnableQueueMetrics()
	rng := workload.Rand(seed, 0x5A41)
	cfg := dht.Config{K: 8, Alpha: 3, RequestTimeout: 2 * time.Second}
	peers := make([]*dht.Peer, swarmPeers)
	for i := range peers {
		var id dht.Key
		rng.Read(id[:])
		peers[i] = dht.NewPeer(nw.AddNode(), id, cfg)
	}
	// Staggered joins through peer 0 keep the bootstrap burst bounded.
	for i := 1; i < len(peers); i++ {
		p := peers[i]
		p.Node().After(time.Duration(i)*swarmJoinEvery, func() { p.Bootstrap(peers[0].Contact(), nil) })
	}
	nw.Run(time.Duration(len(peers))*swarmJoinEvery + 10*time.Second)

	members := make([]*gossip.Member, swarmPeers)
	ids := make([]simnet.NodeID, swarmPeers)
	for i, p := range peers {
		ids[i] = p.Node().ID()
	}
	for i, p := range peers {
		members[i] = gossip.NewMember(p.Node(), gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
		var out []simnet.NodeID
		for off := 1; off < swarmPeers && len(out) < 8; off *= 2 {
			out = append(out, ids[(i+off)%swarmPeers])
		}
		members[i].SetPeers(out)
	}

	w := &swarmWorld{nw: nw, slots: make([]swarmSlot, swarmPeers)}
	base := nw.Now()
	keys := make([]dht.Key, swarmKeys)
	values := make([][]byte, swarmKeys)
	for k := range keys {
		rng.Read(keys[k][:])
		values[k] = make([]byte, swarmValueBytes)
		rng.Read(values[k])
		p, key, val := peers[rng.Intn(swarmPeers)], keys[k], values[k]
		p.Node().After(time.Duration(k)*10*time.Millisecond, func() { p.Put(key, val, nil) })
	}
	start := 5 * time.Second
	for i, p := range peers {
		for l := 0; l < swarmLookups; l++ {
			k := rng.Intn(swarmKeys)
			at := start + time.Duration(l)*swarmCadence + time.Duration(i%200)*5*time.Millisecond
			p.Node().After(at, func() {
				slot := &w.slots[i]
				slot.Launched++
				t0, h0 := p.Node().Now(), p.Stats().LookupHops
				p.Get(keys[k], func(v []byte, found bool) {
					slot.Lat = append(slot.Lat, (p.Node().Now() - t0).Seconds())
					slot.Hops = append(slot.Hops, float64(p.Stats().LookupHops-h0))
					switch {
					case found && bytes.Equal(v, values[k]):
						slot.Found++
					case found:
						slot.Wrong++
					}
				})
			})
		}
	}
	for g := 0; g < swarmItems; g++ {
		data := make([]byte, swarmItemBytes)
		rng.Read(data)
		it := gossip.Item{ID: cryptoutil.SumHash(data), Data: data, Size: len(data)}
		m := members[rng.Intn(swarmPeers)]
		m.Node().After(time.Duration(g)*time.Second, func() { m.Publish(it) })
	}
	w.published = swarmItems
	w.until = base + start + swarmLookups*swarmCadence + 10*time.Second
	return w
}

func (w *swarmWorld) run(tr *tracer) {
	before := w.nw.Trace().Delivered
	sp := tr.begin("simnet.run")
	w.nw.Run(w.until)
	tr.end(sp)
	w.delivered = w.nw.Trace().Delivered - before
}

func (w *swarmWorld) result(snap *obs.Snapshot) outcome {
	out := outcome{ops: w.delivered}
	wrong := 0
	var hops []float64
	for _, s := range w.slots {
		out.attempted += s.Launched
		out.ok += s.Found
		wrong += s.Wrong
		out.lat = append(out.lat, s.Lat...)
		hops = append(hops, s.Hops...)
	}
	if wrong != 0 || len(out.lat) != out.attempted || out.attempted != swarmPeers*swarmLookups {
		out.err = fmt.Errorf("swarm: %d lookups launched of %d, %d completed, %d returned a wrong value",
			out.attempted, swarmPeers*swarmLookups, len(out.lat), wrong)
	}
	c := snap.Counters
	out.counts = simnetCounts(snap, w.delivered)
	for k, v := range resilCounts(snap) {
		out.counts[k] = v
	}
	lookups := float64(c["dht.lookup.started"])
	delivered := float64(c["gossip.item.delivered"])
	out.counts["dht.lookups"] = lookups
	out.counts["dht.lookup.failed"] = float64(out.attempted - out.ok)
	out.counts["dht.lookup.hops_p50"] = quantile(hops, 0.5)
	out.counts["gossip.delivered"] = delivered
	out.counts["gossip.dup_ratio"] = 1 - ratio(delivered-float64(w.published), float64(c["gossip.push.sent"]))
	out.digest = digestOf(w.slots)
	return out
}
