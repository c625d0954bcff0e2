package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/replic"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/workload"
)

// flash is an X20-style replicated swarm under a flash crowd: a directory
// and home-uplink providers run adaptive replication behind overload
// protection, and clients fetch through the resilient transport with the
// overload shed classifier. A Zipf + diurnal + flash schedule from
// workload.Generate drives it while fault.RollingChurn crashes and
// restarts every client and provider once. It is an open loop in virtual
// time: each request launches at its scheduled instant whether or not
// earlier ones finished, so the generator is never late by construction
// and latency runs from the scheduled launch. It runs on the single-heap
// engine with many small RPCs.
const (
	flashClients   = 800
	flashProviders = 32
	flashObjects   = 96
	flashObjBytes  = 16 << 10
	flashRegions   = 4
	flashK         = 2
	flashMeanRate  = 24.0 // population-wide requests per virtual second
	flashHorizon   = 20 * time.Minute
	flashDay       = 10 * time.Minute
	flashGrace     = 90 * time.Second
	flashSLA       = 8 * time.Second
	flashTimeout   = 30 * time.Second
)

var flashWorkload = workloadSpec{
	name:  "flash",
	setup: newFlash,
	why:   "open-loop Zipf+flash crowd on a replic swarm with overload control and resil clients under rolling churn, single-heap engine; loads simnet heap and rpc, resil, overload, replic",
}

// flashReq is one scheduled request's fate, written by its own callback.
type flashReq struct {
	Done    int
	OK      bool
	Timeout bool
	Lat     time.Duration
}

type flashWorld struct {
	nw      *simnet.Network
	reqs    []workload.Request
	results []flashReq
	until   time.Duration
	gets    int
	// delivered counts messages delivered in the timed phase.
	delivered int64
}

func newFlash(seed int64, _ int, tr *tracer) world {
	rs := workload.DefaultRegions(flashRegions, flashDay)
	sp := tr.begin("workload.generate")
	reqs := workload.Generate(workload.StreamConfig{
		Seed:    seed,
		Clients: flashClients,
		Horizon: flashHorizon,
		Pop:     workload.NewZipf(flashObjects, 1.1),
		Rate:    workload.NewDiurnal(workload.DiurnalConfig{Mean: flashMeanRate, Period: flashDay, Amp: 0.6, Floor: 0.5}),
		Flash: workload.Flash{
			Object: flashObjects - 1, Start: 6 * time.Minute, Ramp: 2 * time.Minute,
			Peak: 100, Decay: 3 * time.Minute,
		},
		Regions: &rs,
	})
	tr.end(sp)

	ovCfg := overload.Config{
		Enabled: true, QueueLen: 32, Target: 2 * time.Second, SLO: 4 * time.Second,
		MinLimit: 1, MaxLimit: 8, RetryAfterBase: time.Second,
	}
	cfg := replic.Defaults()
	cfg.FloorK = flashK
	if cfg.Cap > flashProviders {
		cfg.Cap = flashProviders
	}
	cfg.Resilience = resil.Defaults()
	cfg.Resilience.Classify = overload.Classify
	cfg.Overload = ovCfg

	nw := simnet.New(seed)
	nw.EnableQueueMetrics()
	dirNode := nw.AddNode()
	replic.NewDirectoryWith(dirNode, flashK, ovCfg)
	w := &flashWorld{nw: nw, reqs: reqs, results: make([]flashReq, len(reqs))}

	clientNodes := make([]*simnet.Node, flashClients)
	ids := make([]simnet.NodeID, 0, flashClients+flashProviders)
	for i := range clientNodes {
		clientNodes[i] = nw.AddNode()
		ids = append(ids, clientNodes[i].ID())
	}
	provNodes := make([]*simnet.Node, flashProviders)
	provIDs := make([]simnet.NodeID, flashProviders)
	for i := range provNodes {
		provNodes[i] = nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
		provIDs[i] = provNodes[i].ID()
		ids = append(ids, provIDs[i])
	}
	rs.Apply(nw, ids)
	regionOf := make(map[simnet.NodeID]int, len(ids))
	for i, id := range ids {
		regionOf[id] = rs.Assign(i)
	}
	provs := make([]*replic.Provider, flashProviders)
	for i, n := range provNodes {
		provs[i] = replic.NewProvider(n, cfg, dirNode.ID(), flashRegions, regionOf)
		provs[i].SetPeers(provIDs)
	}
	clients := make([]*replic.Client, flashClients)
	for i, n := range clientNodes {
		clients[i] = replic.NewClient(n, cfg, dirNode.ID(), regionOf[n.ID()], regionOf, rs.Extra)
	}

	// The catalog: object o is pinned at provider o%P with K-1 static
	// replicas after it. Contents derive from the seed.
	rng := workload.Rand(seed, 0xF1A54)
	objs := make([]cryptoutil.Hash, flashObjects)
	for o := range objs {
		payload := make([]byte, flashObjBytes)
		rng.Read(payload)
		objs[o] = cryptoutil.SumHash(payload)
		origin := o % flashProviders
		provs[origin].Put(objs[o], payload, true)
		for j := 1; j < flashK; j++ {
			provs[(origin+j)%flashProviders].Put(objs[o], payload, false)
		}
	}
	for _, p := range provs {
		p.Start()
	}
	nw.Run(nw.Now() + time.Minute) // announces settle

	base := nw.Now()
	churn := fault.RollingChurn()
	churn.Build(seed, ids, flashHorizon).ApplyAt(nw, base)
	for i, r := range reqs {
		launch := base + r.At
		c := clients[r.Client]
		nw.Schedule(launch, func() {
			w.gets++
			c.Get(objs[r.Object], flashTimeout, func(data []byte, err error) {
				res := &w.results[i]
				res.Done++
				res.Lat = c.Node().Now() - launch
				res.OK = err == nil && len(data) == flashObjBytes
				res.Timeout = errors.Is(err, simnet.ErrRPCTimeout)
			})
		})
	}
	w.until = base + flashHorizon + flashGrace
	return w
}

func (w *flashWorld) run(tr *tracer) {
	before := w.nw.Trace().Delivered
	sp := tr.begin("simnet.run")
	w.nw.Run(w.until)
	tr.end(sp)
	w.delivered = w.nw.Trace().Delivered - before
}

func (w *flashWorld) result(snap *obs.Snapshot) outcome {
	out := outcome{attempted: len(w.reqs), ops: w.delivered}
	var okN, errN, timeoutN, lost, twice int
	for _, r := range w.results {
		switch {
		case r.Done == 0:
			lost++
			continue
		case r.Done > 1:
			twice++
		}
		out.lat = append(out.lat, r.Lat.Seconds())
		switch {
		case r.OK:
			okN++
			if r.Lat <= flashSLA {
				out.ok++
			}
		case r.Timeout:
			timeoutN++
		default:
			errN++
		}
	}
	if lost != 0 || twice != 0 || okN+errN+timeoutN != len(w.reqs) || w.gets != len(w.reqs) {
		out.err = fmt.Errorf("flash: %d launched, %d issued, ok %d + error %d + timeout %d; %d never completed, %d completed twice",
			len(w.reqs), w.gets, okN, errN, timeoutN, lost, twice)
	}
	out.counts = simnetCounts(snap, w.delivered)
	for k, v := range resilCounts(snap) {
		out.counts[k] = v
	}
	c := snap.Counters
	offered := float64(c["overload.offered"])
	out.counts["overload.offered"] = offered
	out.counts["overload.admitted"] = float64(c["overload.admitted"])
	out.counts["overload.shed"] = float64(c["overload.shed"])
	out.counts["overload.codel.dropped"] = float64(c["overload.codel.dropped"])
	out.counts["overload.admit_ratio"] = ratio(float64(c["overload.admitted"]), offered)
	out.counts["overload.queue.wait_p99_s"] = snap.Histograms["overload.queue.wait_s"].P99
	out.counts["replic.replicas.created"] = float64(c["replic.replicas.created"])
	out.counts["replic.advert.sent"] = float64(c["replic.advert.sent"])
	out.counts["replic.route.nearest_hit_ratio"] = ratio(float64(c["replic.route.nearest_hit"]), float64(okN))
	out.digest = digestOf(w.results)
	return out
}
