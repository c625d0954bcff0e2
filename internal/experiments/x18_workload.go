package experiments

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/webapp"
	"repro/internal/workload"
)

// X18: the workload engine meets the architecture question. X2–X16 probe
// subsystems with synthetic fixed-cadence probes; X18 drives three whole
// architectures with the same realistic demand curve — Zipf-popular
// content, diurnal load with per-region phase offsets, and a flash crowd
// that makes the catalog's most obscure object ~10³× hotter over a few
// virtual minutes (an unknown blog hitting the global front page; the
// paper's §2 "why self-hosting dies" scenario).
//
// The three arms get identical hardware budgets — every serving machine
// is a home-broadband link (≈1 Mbit/s up) — and the exact same request
// schedule, produced once by internal/workload.Generate. Only the
// architecture differs:
//
//	ostatus-1srv    the feudal baseline a self-hoster escapes *to*: one
//	                origin box answers everything; clients time out, no
//	                retry
//	fed-replicated  a replicated federation (Matrix-style): K full
//	                replicas, clients home round-robin and fail over one
//	                hop
//	p2p-webapp      the hostless webapp: every successful visitor
//	                becomes a seeder, so the flash crowd brings its own
//	                capacity
//
// Per arm: avail% (requests answered within the SLA latency budget —
// X16's user-experienced measure), p95 latency of completed requests,
// origin% (share of served payload bytes carried by the busiest
// single machine — 100 for the feudal arm by construction), and msg/node
// substrate traffic. Everything is a pure function of the seed: the
// schedule, every keypair, and every retry come off deterministic
// streams, so the table is byte-identical at any trial-worker count.

// x18Spec sizes one X18 world.
type x18Spec struct {
	clients  int
	objects  int
	objBytes int
	servers  int // fed-replicated replica count
	regions  int
	zipfS    float64
	meanRate float64 // population-wide req/s, time-averaged
	amp      float64 // diurnal amplitude
	floor    float64 // diurnal night floor
	horizon  time.Duration
	day      time.Duration // diurnal period (virtual)
	sla      time.Duration // latency budget per request
	timeout  time.Duration // client RPC/visit timeout
	flash    workload.Flash
}

func x18SpecFor(tiny bool) x18Spec {
	if tiny {
		return x18Spec{
			clients: 12, objects: 8, objBytes: 24 << 10, servers: 3, regions: 2,
			zipfS: 1.1, meanRate: 0.25, amp: 0.6, floor: 0.5,
			horizon: 10 * time.Minute, day: 5 * time.Minute,
			sla: 6 * time.Second, timeout: 30 * time.Second,
			flash: workload.Flash{
				Object: 7, Start: 3 * time.Minute, Ramp: time.Minute,
				Peak: 1000, Decay: 90 * time.Second,
			},
		}
	}
	return x18Spec{
		clients: 36, objects: 24, objBytes: 64 << 10, servers: 4, regions: 4,
		zipfS: 1.1, meanRate: 0.3, amp: 0.6, floor: 0.5,
		horizon: 30 * time.Minute, day: 15 * time.Minute,
		sla: 8 * time.Second, timeout: 30 * time.Second,
		flash: workload.Flash{
			Object: 23, Start: 10 * time.Minute, Ramp: 2 * time.Minute,
			Peak: 1000, Decay: 3 * time.Minute,
		},
	}
}

// x18Grace is how long past the horizon an arm runs so in-flight
// requests either finish or time out before scoring.
const x18Grace = 90 * time.Second

// WorkloadVariants are the schedule shapes cmd/feudalism's -workload
// flag selects between. "flash" is the headline (registry) variant.
func WorkloadVariants() []string { return []string{"zipf", "diurnal", "flash"} }

// x18Stream builds the shared request schedule for one workload variant:
// "zipf" is steady-rate pure popularity, "diurnal" adds the day/night
// cycle, "flash" adds the spike on the least-popular object.
func x18Stream(seed int64, sp x18Spec, wl string) ([]workload.Request, *workload.RegionSet) {
	rs := workload.DefaultRegions(sp.regions, sp.day)
	cfg := workload.StreamConfig{
		Seed:    seed,
		Clients: sp.clients,
		Horizon: sp.horizon,
		Pop:     workload.NewZipf(sp.objects, sp.zipfS),
		Regions: &rs,
	}
	dc := workload.DiurnalConfig{Mean: sp.meanRate, Period: sp.day}
	switch wl {
	case "zipf":
	case "diurnal":
		dc.Amp, dc.Floor = sp.amp, sp.floor
	case "flash":
		dc.Amp, dc.Floor = sp.amp, sp.floor
		cfg.Flash = sp.flash
	default:
		panic(fmt.Sprintf("x18: unknown workload variant %q (want zipf|diurnal|flash)", wl))
	}
	cfg.Rate = workload.NewDiurnal(dc)
	return workload.Generate(cfg), &rs
}

// x18Cell is one arm's scoreboard.
type x18Cell struct {
	avail       float64 // fraction of requests answered OK within sla
	p95         float64 // seconds, over completed requests
	originShare float64 // busiest single machine's share of served payload bytes
	msgPerNode  float64
}

// x18Score fills an arm's cell from its finished meter.
func x18Score(m *slaMeter, originShare, msgPerNode float64) x18Cell {
	return x18Cell{avail: m.avail(), p95: m.p95(), originShare: originShare, msgPerNode: msgPerNode}
}

// x18Feudal: the single-home-server OStatus arm. One origin on a home
// link serves every object; a request is one RPC with no retry.
func x18Feudal(seed int64, sp x18Spec, reqs []workload.Request, rs *workload.RegionSet) x18Cell {
	nw := simnet.New(seed)
	origin := simnet.NewRPCNode(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()))
	origin.Serve("content.get", func(from simnet.NodeID, req any) (any, int) {
		return req, 32 + sp.objBytes
	})
	clients := make([]*simnet.RPCNode, sp.clients)
	ids := make([]simnet.NodeID, sp.clients)
	for i := range clients {
		clients[i] = simnet.NewRPCNode(nw.AddNode())
		ids[i] = clients[i].Node().ID()
	}
	rs.Apply(nw, ids)
	base := nw.Now()
	meter := newSLAMeter(sp.sla, base, len(reqs))
	sent := sentMeter(nw, base)
	for _, r := range reqs {
		r := r
		c := clients[r.Client]
		meter.launch(nw, r.At, c.Node(), func(done func(bool)) {
			c.Call(origin.Node().ID(), "content.get", r.Object, 200, sp.timeout,
				func(resp any, err error) { done(err == nil) })
		})
	}
	nw.Run(base + sp.horizon + x18Grace)
	return x18Score(meter, 1.0, float64(nw.Trace().Sent-*sent)/float64(nw.NumNodes()))
}

// x18Federated: K full replicas on home links; clients home round-robin
// and fail over exactly one hop on error.
func x18Federated(seed int64, sp x18Spec, reqs []workload.Request, rs *workload.RegionSet) x18Cell {
	nw := simnet.New(seed)
	servers := make([]*simnet.RPCNode, sp.servers)
	served := make([]float64, sp.servers)
	for i := range servers {
		i := i
		servers[i] = simnet.NewRPCNode(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()))
		servers[i].Serve("content.get", func(from simnet.NodeID, req any) (any, int) {
			served[i] += float64(32 + sp.objBytes)
			return req, 32 + sp.objBytes
		})
	}
	clients := make([]*simnet.RPCNode, sp.clients)
	ids := make([]simnet.NodeID, sp.clients)
	for i := range clients {
		clients[i] = simnet.NewRPCNode(nw.AddNode())
		ids[i] = clients[i].Node().ID()
	}
	rs.Apply(nw, ids)
	base := nw.Now()
	meter := newSLAMeter(sp.sla, base, len(reqs))
	sent := sentMeter(nw, base)
	for _, r := range reqs {
		r := r
		c := clients[r.Client]
		meter.launch(nw, r.At, c.Node(), func(done func(bool)) {
			home := r.Client % sp.servers
			c.Call(servers[home].Node().ID(), "content.get", r.Object, 200, sp.timeout,
				func(resp any, err error) {
					if err == nil {
						done(true)
						return
					}
					next := (home + 1) % sp.servers
					c.Call(servers[next].Node().ID(), "content.get", r.Object, 200, sp.timeout,
						func(resp any, err error) { done(err == nil) })
				})
		})
	}
	nw.Run(base + sp.horizon + x18Grace)
	var total, busiest float64
	for _, b := range served {
		total += b
		if b > busiest {
			busiest = b
		}
	}
	share := 0.0
	if total > 0 {
		share = busiest / total
	}
	return x18Score(meter, share, float64(nw.Trace().Sent-*sent)/float64(nw.NumNodes()))
}

// x18P2P: the hostless-webapp arm. One author (home link) publishes each
// object as a site; clients are webapp peers. A request Forgets any local
// copy first — each hit models a fresh user on that device — then Visits,
// so the blobs always cross the network; between its own requests a
// client keeps seeding what it last fetched, which is exactly how the
// flash crowd brings its own capacity. An optional fault scenario (the
// conformance battery) crashes/degrades client nodes mid-run.
func x18P2P(seed int64, sp x18Spec, reqs []workload.Request, rs *workload.RegionSet, sc *fault.Scenario) (x18Cell, []slaOutcome) {
	nw := simnet.New(seed)
	tracker := webapp.NewTracker(nw.AddNode())
	authorNode := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
	authorDHT := dht.NewPeer(authorNode, dht.Key{}, dht.Config{})
	author := webapp.NewPeer(authorNode, authorDHT, tracker.Node().ID(), sp.timeout)
	clients := make([]*webapp.Peer, sp.clients)
	ids := make([]simnet.NodeID, sp.clients)
	for i := range clients {
		node := nw.AddNode()
		d := dht.NewPeer(node, dht.Key{}, dht.Config{})
		clients[i] = webapp.NewPeer(node, d, tracker.Node().ID(), sp.timeout)
		ids[i] = node.ID()
		i := i
		nw.After(time.Duration(i+1)*20*time.Millisecond, func() {
			d.Bootstrap(authorDHT.Contact(), nil)
		})
	}
	rs.Apply(nw, ids)
	nw.Run(nw.Now() + time.Minute)

	// One site per object, each under its own deterministic keypair.
	sites := make([]cryptoutil.Hash, sp.objects)
	for o := range sites {
		o := o
		owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
		if err != nil {
			return x18Cell{}, nil
		}
		payload := make([]byte, sp.objBytes)
		for i := range payload {
			payload[i] = byte(o*31 + i)
		}
		author.Publish(owner, 1, map[string][]byte{"blob.bin": payload}, cryptoutil.Hash{},
			func(m *webapp.Manifest) { sites[o] = m.Site })
	}
	nw.Run(nw.Now() + time.Minute)
	for _, s := range sites {
		if s.IsZero() {
			return x18Cell{}, nil
		}
	}

	base := nw.Now()
	if sc != nil {
		sc.Build(seed, ids, sp.horizon).ApplyAt(nw, base)
	}
	meter := newSLAMeter(sp.sla, base, len(reqs))
	sent := sentMeter(nw, base)
	flashReqs := 0
	for _, r := range reqs {
		r := r
		if sp.flash.Active() && r.Object == sp.flash.Object && r.At >= sp.flash.Start {
			flashReqs++
		}
		p := clients[r.Client]
		meter.launch(nw, r.At, p.Node(), func(done func(bool)) {
			p.Forget(sites[r.Object])
			p.Visit(sites[r.Object], func(fs map[string][]byte, err error) {
				done(err == nil && len(fs) == 1)
			})
		})
	}
	nw.Run(base + sp.horizon + x18Grace)

	var swarm float64
	for _, p := range clients {
		swarm += float64(p.BlobBytesServed)
	}
	authorBytes := float64(author.BlobBytesServed)
	share := 0.0
	if authorBytes+swarm > 0 {
		share = authorBytes / (authorBytes + swarm)
	}
	// X18-only observability: these register on this arm's network alone,
	// after every pre-existing experiment's metrics are already fixed.
	reg := nw.Obs()
	reg.Counter("workload.req.launched").Set(int64(len(reqs)))
	reg.Counter("workload.req.sla_ok").Set(int64(meter.hits()))
	reg.Counter("workload.req.flash").Set(int64(flashReqs))
	reg.Gauge("workload.flash.peak_x").Set(sp.flash.Peak)
	return x18Score(meter, share, float64(nw.Trace().Sent-*sent)/float64(nw.NumNodes())), meter.outcomes()
}

// workloadMatrix is the numeric core of X18: one shared schedule, three
// architectures, four measures.
func workloadMatrix(seed int64, wl string, tiny bool) Matrix {
	sp := x18SpecFor(tiny)
	reqs, rs := x18Stream(seed, sp, wl)
	m := NewMatrix(
		[]string{"ostatus-1srv", "fed-replicated", "p2p-webapp"},
		[]string{"avail%", "p95(s)", "origin%", "msg/node"},
	)
	cells := []x18Cell{
		x18Feudal(seed, sp, reqs, rs),
		x18Federated(seed, sp, reqs, rs),
	}
	p2p, _ := x18P2P(seed, sp, reqs, rs, nil)
	cells = append(cells, p2p)
	for r, c := range cells {
		m.Vals[r][0] = c.avail * 100
		m.Vals[r][1] = c.p95
		m.Vals[r][2] = c.originShare * 100
		m.Vals[r][3] = c.msgPerNode
	}
	return m
}

// WorkloadContention renders the single-seed X18 table for one workload
// variant ("zipf", "diurnal" or "flash" — see WorkloadVariants).
func WorkloadContention(seed int64, wl string) *Table {
	m := workloadMatrix(seed, wl, false)
	sp := x18SpecFor(false)
	t := &Table{
		Title: fmt.Sprintf("X18: %s workload — %d clients, %d objects, SLA %v; feudal vs federated vs p2p on equal home links",
			wl, sp.clients, sp.objects, sp.sla),
		Headers: append([]string{"Architecture"}, m.Cols...),
	}
	for r, name := range m.Rows {
		t.Add(name,
			fmt.Sprintf("%.1f%%", m.Vals[r][0]),
			fmt.Sprintf("%.2fs", m.Vals[r][1]),
			fmt.Sprintf("%.1f%%", m.Vals[r][2]),
			fmt.Sprintf("%.0f", m.Vals[r][3]))
	}
	return t
}

// WorkloadContentionMulti is the flash-crowd X18 aggregated over a batch
// of seeds on `workers` parallel trial runners (0 = GOMAXPROCS).
func WorkloadContentionMulti(seeds []int64, workers int) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix {
		return workloadMatrix(seed, "flash", false)
	})
	return agg.Table(
		"X18: flash-crowd workload — feudal vs federated vs p2p on equal home links",
		"Architecture", "%.1f", "%.2f", "%.1f", "%.0f")
}

// WorkloadContentionTiny is the scaled-down X18 the registry tests run.
func WorkloadContentionTiny(seed int64) *Table {
	m := workloadMatrix(seed, "flash", true)
	t := &Table{
		Title:   "X18 (tiny): flash-crowd workload",
		Headers: append([]string{"Architecture"}, m.Cols...),
	}
	for r, name := range m.Rows {
		row := []any{name}
		for c := range m.Cols {
			row = append(row, fmt.Sprintf("%.1f", m.Vals[r][c]))
		}
		t.Add(row...)
	}
	return t
}
