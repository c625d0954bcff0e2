package experiments

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/replic"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/workload"
)

// X19: does demand-chasing replication buy back what X18 showed the
// static p2p arm losing? X18 proved the architecture point — a swarm
// survives a flash crowd a single home server cannot — but its p2p arm
// replicates by side effect (visitors seed what they just fetched) and
// its static arms never replicate at all. X19 isolates the replication
// policy: the same flash-crowd schedule, the same provider hardware (home
// uplinks), the same directory — the only difference between arms is
// whether internal/replic is enabled.
//
//	static-K   replication disabled: every object keeps its initial K
//	           replicas forever, clients fetch in directory order
//	           (origin first) and fail over on error — federation-style
//	           static provisioning
//	adaptive   replic enabled: exponentially-decayed demand counters,
//	           hive-style adverts between co-holders, origin-driven
//	           pushes toward the heaviest requester region, decay back
//	           to the K floor, nearest-replica routing on resil SRTT
//	           estimates with hedged fetches
//
// Both arms run clean and under the battery's rolling-churn scenario
// (every provider and client crashes once mid-run). Per arm: avail%
// (answered within the SLA, X16's user-experienced measure), p95 latency,
// origin% (share of payload bytes served by each object's pinned origin —
// the replic.origin.byte_share gauge), and the replica-count timeline's
// peak and final values, which show the set inflating under the spike and
// garbage-collecting back to the floor.
type x19Spec struct {
	x18Spec
	providers int
	k         int // initial replicas per object; also the GC floor
}

func x19SpecFor(tiny bool) x19Spec {
	sp := x19Spec{x18Spec: x18SpecFor(tiny), k: 2, providers: 8}
	if tiny {
		sp.providers = 4
	}
	return sp
}

// x19Cfg is the adaptive arm's replication config. The floor is the
// spec's K and the cap is bounded by the provider population; the
// resilience layer is on so nearest-replica ranking runs on measured
// SRTT. The reaction knobs are deliberately faster than the package
// defaults, and the reason is the experiment's central lesson: a
// saturated origin loses its own control plane — its pushes and
// directory calls queue behind the very responses that are drowning it —
// so replication must finish while the flash ramp still leaves uplink
// headroom. A 15s half-life crosses the advertise threshold within
// ~30s of the ramp starting, 10s ticks turn that into a push per 10s,
// and one replica per 0.5 req/s of swarm demand (~¼ of a home uplink's
// 64KB-object capacity) sizes the set with room for the demand the
// decayed counter has not seen yet.
func x19Cfg(sp x19Spec) replic.Config {
	cfg := replic.Defaults()
	cfg.FloorK = sp.k
	if cfg.Cap > sp.providers {
		cfg.Cap = sp.providers
	}
	cfg.HotRate = 0.25
	cfg.ColdRate = 0.1
	cfg.PerReplicaRate = 0.5
	cfg.HalfLife = 15 * time.Second
	cfg.TickEvery = 10 * time.Second
	cfg.Resilience = resil.Defaults()
	return cfg
}

// x19Timeline samples the directory's total replica count this many times
// across the horizon.
const x19Timeline = 40

// x19DebugHook, when non-nil, observes each finished arm (tests only).
var x19DebugHook func(nw *simnet.Network, dir *replic.Directory, provs []*replic.Provider)

// x19Result is one arm's full outcome: the table cell, per-request
// outcomes for the conformance suite's availability windows, and the
// replica-count timeline.
type x19Result struct {
	cell     x19Cell
	outcomes []slaOutcome
	timeline []int
	// provHeld[i] is provider i's final held-object count (the conformance
	// suite asserts pinned origins survive every scenario).
	provHeld []int
}

type x19Cell struct {
	avail       float64
	p95         float64
	originShare float64
	replPeak    float64
	replEnd     float64
}

// x19Arm runs one (replication config, fault scenario) arm over the
// shared schedule. engine selects the simulation engine layout (the
// zero value is the classic single-heap engine); det replaces every
// access link with a fixed-latency deterministic profile — no jitter, no
// loss, no bandwidth queueing — which is the regime where the legacy and
// sharded engines are event-for-event identical (see simnet's
// TestShardedMatchesLegacyWhenDeterministic), so the cross-layout golden
// test runs with det=true.
func x19Arm(seed int64, sp x19Spec, cfg replic.Config, reqs []workload.Request, rs *workload.RegionSet, sc *fault.Scenario, engine simnet.NetworkConfig, det bool) x19Result {
	engine.Seed = seed
	nw := simnet.NewWithConfig(engine)
	dirNode := nw.AddNode()
	dir := replic.NewDirectory(dirNode, sp.k)

	// Clients first in the region assignment so client i keeps the region
	// the schedule generator gave it; providers follow in the same
	// round-robin.
	clientNodes := make([]*simnet.Node, sp.clients)
	ids := make([]simnet.NodeID, 0, sp.clients+sp.providers)
	for i := range clientNodes {
		clientNodes[i] = nw.AddNode()
		ids = append(ids, clientNodes[i].ID())
	}
	provNodes := make([]*simnet.Node, sp.providers)
	for i := range provNodes {
		provNodes[i] = nw.AddNode()
		ids = append(ids, provNodes[i].ID())
	}
	rs.Apply(nw, ids)
	regionOf := make(map[simnet.NodeID]int, len(ids))
	for i, id := range ids {
		regionOf[id] = rs.Assign(i)
	}
	if det {
		for _, n := range nw.Nodes() {
			n.SetProfile(simnet.LinkProfile{Latency: 5 * time.Millisecond})
		}
	}

	provs, clients, objs := x19Stock(sp, cfg, dirNode.ID(), provNodes, clientNodes, regionOf, rs)
	nw.Run(nw.Now() + time.Minute) // announces settle

	base := nw.Now()
	if sc != nil {
		// Providers and clients are all fault-eligible; only the directory
		// is an anchor (the tracker convention X18 set).
		sc.Build(seed, ids, sp.horizon).ApplyAt(nw, base)
	}
	meter := newSLAMeter(sp.sla, base, len(reqs))
	timeline := make([]int, 0, x19Timeline+1)
	for i := 0; i <= x19Timeline; i++ {
		at := base + sp.horizon*time.Duration(i)/time.Duration(x19Timeline)
		nw.Schedule(at, func() { timeline = append(timeline, dir.TotalReplicas()) })
	}
	for _, r := range reqs {
		r := r
		c := clients[r.Client]
		meter.launch(nw, r.At, c.Node(), func(done func(bool)) {
			c.Get(objs[r.Object], sp.timeout, func(data []byte, err error) {
				done(err == nil && len(data) == sp.objBytes)
			})
		})
	}
	nw.Run(base + sp.horizon + x18Grace)
	// One settle sample after the grace: the flash tail can keep swarm
	// demand above ColdRate to the very edge of the horizon (tiny scale
	// especially), so the horizon's final sample may catch the set one or
	// two releases short of the floor. The post-grace sample is the
	// garbage-collected steady state — replEnd reports this.
	timeline = append(timeline, dir.TotalReplicas())

	var total, origin int64
	held := make([]int, sp.providers)
	for i, p := range provs {
		total += p.BytesServed
		origin += p.OriginBytes
		held[i] = p.NumHeld()
	}
	share := 0.0
	if total > 0 {
		share = float64(origin) / float64(total)
	}
	peak, end := 0, 0
	for _, v := range timeline {
		if v > peak {
			peak = v
		}
		end = v
	}
	// X19-only observability: the origin-share gauge registers after every
	// pre-existing experiment's metrics are already fixed, and the replic.*
	// counters were filled in by the package as the arm ran.
	nw.Obs().Gauge("replic.origin.byte_share").Set(share)
	if x19DebugHook != nil {
		x19DebugHook(nw, dir, provs)
	}
	return x19Result{
		cell: x19Cell{
			avail:       meter.avail(),
			p95:         meter.p95(),
			originShare: share,
			replPeak:    float64(peak),
			replEnd:     float64(end),
		},
		outcomes: meter.outcomes(),
		timeline: timeline,
		provHeld: held,
	}
}

// x19Stock attaches replic providers and clients to an arm's nodes, seeds
// the catalog — object o's origin is provider o%P (pinned), plus k-1
// static replicas on the following providers — and starts the providers.
func x19Stock(sp x19Spec, cfg replic.Config, dir simnet.NodeID, provNodes, clientNodes []*simnet.Node, regionOf map[simnet.NodeID]int, rs *workload.RegionSet) ([]*replic.Provider, []*replic.Client, []cryptoutil.Hash) {
	provIDs := make([]simnet.NodeID, len(provNodes))
	for i, n := range provNodes {
		provIDs[i] = n.ID()
	}
	provs := make([]*replic.Provider, len(provNodes))
	for i, n := range provNodes {
		provs[i] = replic.NewProvider(n, cfg, dir, sp.regions, regionOf)
		provs[i].SetPeers(provIDs)
	}
	clients := make([]*replic.Client, len(clientNodes))
	for i, n := range clientNodes {
		clients[i] = replic.NewClient(n, cfg, dir, regionOf[n.ID()], regionOf, rs.Extra)
	}
	objs := make([]cryptoutil.Hash, sp.objects)
	for o := range objs {
		payload := make([]byte, sp.objBytes)
		for i := range payload {
			payload[i] = byte(o*31 + i)
		}
		objs[o] = cryptoutil.SumHash(payload)
		origin := o % sp.providers
		provs[origin].Put(objs[o], payload, true)
		for j := 1; j < sp.k; j++ {
			provs[(origin+j)%sp.providers].Put(objs[o], payload, false)
		}
	}
	for _, p := range provs {
		p.Start()
	}
	return provs, clients, objs
}

// replicationMatrix is the numeric core of X19: one shared flash-crowd
// schedule, static-K vs adaptive replication, clean vs rolling churn.
func replicationMatrix(seed int64, tiny bool, engine simnet.NetworkConfig, det bool) Matrix {
	sp := x19SpecFor(tiny)
	reqs, rs := x18Stream(seed, sp.x18Spec, "flash")
	churn := fault.RollingChurn()
	arms := []struct {
		name string
		cfg  replic.Config
		sc   *fault.Scenario
	}{
		{"static-clean", replic.Config{}, nil},
		{"static-churn", replic.Config{}, &churn},
		{"adaptive-clean", x19Cfg(sp), nil},
		{"adaptive-churn", x19Cfg(sp), &churn},
	}
	rows := make([]string, len(arms))
	for i := range arms {
		rows[i] = arms[i].name
	}
	m := NewMatrix(rows, []string{"avail%", "p95(s)", "origin%", "repl-peak", "repl-end"})
	for r, arm := range arms {
		res := x19Arm(seed, sp, arm.cfg, reqs, rs, arm.sc, engine, det)
		m.Vals[r][0] = res.cell.avail * 100
		m.Vals[r][1] = res.cell.p95
		m.Vals[r][2] = res.cell.originShare * 100
		m.Vals[r][3] = res.cell.replPeak
		m.Vals[r][4] = res.cell.replEnd
	}
	return m
}

// x19Format renders one matrix into the X19 table.
func x19Format(m Matrix, sp x19Spec, title string) *Table {
	t := &Table{
		Title:   title,
		Headers: append([]string{"Arm"}, m.Cols...),
	}
	for r, name := range m.Rows {
		t.Add(name,
			fmt.Sprintf("%.1f%%", m.Vals[r][0]),
			fmt.Sprintf("%.2fs", m.Vals[r][1]),
			fmt.Sprintf("%.1f%%", m.Vals[r][2]),
			fmt.Sprintf("%.0f", m.Vals[r][3]),
			fmt.Sprintf("%.0f", m.Vals[r][4]))
	}
	return t
}

// AdaptiveReplication renders the single-seed X19 table at full scale.
func AdaptiveReplication(seed int64) *Table {
	sp := x19SpecFor(false)
	m := replicationMatrix(seed, false, simnet.NetworkConfig{}, false)
	return x19Format(m, sp, fmt.Sprintf(
		"X19: flash-crowd replay — static K=%d vs adaptive replication (floor %d, cap %d) on %d home-link providers",
		sp.k, sp.k, x19Cfg(sp).Cap, sp.providers))
}

// AdaptiveReplicationMulti is X19 aggregated over a batch of seeds on
// `workers` parallel trial runners (0 = GOMAXPROCS).
func AdaptiveReplicationMulti(seeds []int64, workers int) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix {
		return replicationMatrix(seed, false, simnet.NetworkConfig{}, false)
	})
	return agg.Table(
		"X19: flash-crowd replay — static-K vs adaptive replication with nearest-replica routing",
		"Arm", "%.1f", "%.2f", "%.1f", "%.0f", "%.0f")
}

// AdaptiveReplicationTiny is the scaled-down X19 the registry tests run.
func AdaptiveReplicationTiny(seed int64) *Table {
	sp := x19SpecFor(true)
	m := replicationMatrix(seed, true, simnet.NetworkConfig{}, false)
	return x19Format(m, sp, "X19 (tiny): flash-crowd replay, static-K vs adaptive replication")
}
