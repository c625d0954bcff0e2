package experiments

import (
	"fmt"
	"time"

	"repro/internal/overload"
	"repro/internal/replic"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/workload"
)

// X20: what saturation does to a server that refuses to say no. X18
// showed the feudal single-origin arm collapsing under a flash crowd and
// X19 showed replication buying the capacity back — but both left the
// servers naive: every arriving request queues on the home uplink
// forever, so under the spike a reply is seconds-to-minutes stale by the
// time it serializes, the client has long timed out, and the uplink burns
// its whole budget on answers nobody is waiting for. Worse, a saturated
// origin loses its own control plane: X19's adverts and directory calls
// sit in the same FIFO as the doomed bulk replies, so the mechanism that
// could relieve the overload is itself starved by it.
//
// X20 replays the X18 flash-crowd schedule against the same two
// architectures with and without internal/overload on the serving side:
//
//	feudal   one home-uplink origin serving content.get (X18's ostatus
//	         arm, but clients carry the X16 resilient transport in every
//	         arm so only the server side varies)
//	replic   the X19 world — directory + home-uplink providers with
//	         adaptive replication at package-default cadence — with the
//	         directory and every provider protected in the ovld arms
//
// naive arms serve first-come-first-served with unbounded queueing; ovld
// arms run the bounded deadline-aware queue, AIMD admission, and the
// strict-priority control lane, shedding excess with a RetryAfter hint
// that the clients' resil.Classify hook turns into paced, non-breaking
// retries. Every arm runs clean and under the battery's rolling churn.
//
// Per arm: flash-avail% (within-SLA availability over requests launched
// inside the flash window — the gate measure, since the spike is where
// the arms differ), whole-run avail%, p95 latency, ctl-p95 (p95 of a
// 2s-cadence control ping against the hottest server, timeouts counted at
// the full timeout — the "does the control plane survive" probe), sheds
// (server-side rejections incl. CoDel front drops), and the replica-count
// peak (replic arms; the convergence the control lane is buying).
type x20Spec struct {
	x19Spec
}

func x20SpecFor(tiny bool) x20Spec { return x20Spec{x19SpecFor(tiny)} }

// x20FlashWindow is the schedule slice the gate scores: ramp start to
// decay end — exactly where demand exceeds a home uplink.
func x20FlashWindow(sp x18Spec) (time.Duration, time.Duration) {
	return sp.flash.Start, sp.flash.Start + sp.flash.Ramp + sp.flash.Decay
}

// x20OvCfg is the protected arms' overload config. The knobs follow from
// the hardware: a 64KiB reply occupies a 1Mbit/s uplink for ~0.5s, so an
// SLO of 4s admits roughly the queue the SLA (6–8s) can absorb after
// transit, the 2s CoDel target drops anything that has already waited
// half the objective, and MaxLimit 8 lets the AIMD controller explore up
// to ~8 concurrent reply serializations before sojourn feedback cuts it.
func x20OvCfg() overload.Config {
	return overload.Config{
		Enabled:        true,
		QueueLen:       32,
		Target:         2 * time.Second,
		SLO:            4 * time.Second,
		MinLimit:       1,
		MaxLimit:       8,
		RetryAfterBase: time.Second,
	}
}

// x20Resil is the client transport every arm runs: X16 defaults plus the
// shed classifier. Holding the client stack constant across naive and
// ovld arms is the experiment's control — only the serving side varies.
func x20Resil() resil.Config {
	cfg := resil.Defaults()
	cfg.Classify = overload.Classify
	return cfg
}

// x20ReplicCfg is the replic arms' configuration: package-default
// cadence (30s half-life, 15s ticks — not X19's deliberately hot tuning)
// with the spec's floor and cap. The slower control plane is the point:
// it widens the window in which a saturated origin's adverts must fight
// its bulk backlog, which is exactly what the ovld arms' priority lane
// rescues.
func x20ReplicCfg(sp x20Spec, protected bool) replic.Config {
	cfg := replic.Defaults()
	cfg.FloorK = sp.k
	if cfg.Cap > sp.providers {
		cfg.Cap = sp.providers
	}
	cfg.Resilience = x20Resil()
	if protected {
		cfg.Overload = x20OvCfg()
	}
	return cfg
}

const (
	// x20PingEvery is the control-probe cadence.
	x20PingEvery = 2 * time.Second
	// x20PingTimeout caps one probe; a timed-out probe observes this
	// value, so a starved control plane cannot hide from the percentile.
	x20PingTimeout = 10 * time.Second
)

// x20Pinger schedules the ctl.ping probe stream from monitor against
// target across the horizon. Only the meter's p95 is read: the monitor is
// an unskewed anchor, so a timed-out probe completes at exactly
// x20PingTimeout and a starved control plane cannot hide from the
// percentile.
func x20Pinger(nw *simnet.Network, monitor *simnet.RPCNode, target simnet.NodeID, base time.Duration, sp x18Spec) *slaMeter {
	ctl := newSLAMeter(x20PingTimeout, base, int(sp.horizon/x20PingEvery))
	for at := x20PingEvery; at < sp.horizon; at += x20PingEvery {
		ctl.launch(nw, at, monitor.Node(), func(done func(bool)) {
			monitor.Call(target, "ctl.ping", nil, 32, x20PingTimeout, func(resp any, err error) { done(err == nil) })
		})
	}
	return ctl
}

// x20Cell is one arm's scoreboard.
type x20Cell struct {
	flashAvail float64
	avail      float64
	p95        float64
	ctlP95     float64
	shed       float64
	replPeak   float64
}

// x20Result carries the cell plus the raw outcomes for the conformance
// suite's availability windows.
type x20Result struct {
	cell     x20Cell
	outcomes []slaOutcome
}

// x20FlashAvail scores within-SLA availability over the flash window.
func x20FlashAvail(outcomes []slaOutcome, sp x18Spec) float64 {
	ws, we := x20FlashWindow(sp)
	tot, ok := 0, 0
	for _, o := range outcomes {
		if o.at >= ws && o.at <= we {
			tot++
			if o.ok {
				ok++
			}
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(ok) / float64(tot)
}

// x20Sheds totals the server-side rejections an arm's network recorded.
// Reading the counters creates them at zero on naive arms, which is
// deterministic and keeps the snapshot schema identical across arms.
func x20Sheds(nw *simnet.Network) float64 {
	reg := nw.Obs()
	return float64(reg.Counter("overload.shed").Value() + reg.Counter("overload.codel.dropped").Value())
}

// x20Feudal is the single-origin arm: X18's ostatus world with resilient
// clients, a control pinger, and — when protected — the origin's
// content.get behind the overload server. engine and det select the
// simulation engine layout exactly as in x19Arm.
func x20Feudal(seed int64, sp x20Spec, protected bool, reqs []workload.Request, rs *workload.RegionSet, sc *fault.Scenario, engine simnet.NetworkConfig, det bool) x20Result {
	engine.Seed = seed
	nw := simnet.NewWithConfig(engine)
	nw.EnableQueueMetrics()
	originNode := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
	origin := simnet.NewRPCNode(originNode)
	var ovCfg overload.Config
	if protected {
		ovCfg = x20OvCfg()
	}
	ov := overload.New(origin, ovCfg)
	ov.Protect("content.get", func(from simnet.NodeID, req any) (any, int) {
		return req, 32 + sp.objBytes
	})
	ov.Control("ctl.ping", func(from simnet.NodeID, req any) (any, int) { return req, 16 })

	clients := make([]*resil.Client, sp.clients)
	ids := make([]simnet.NodeID, sp.clients)
	for i := range clients {
		n := nw.AddNode()
		clients[i] = resil.New(simnet.NewRPCNode(n), x20Resil())
		ids[i] = n.ID()
	}
	rs.Apply(nw, ids)
	monitor := simnet.NewRPCNode(nw.AddNode())
	if det {
		for _, n := range nw.Nodes() {
			n.SetProfile(simnet.LinkProfile{Latency: 5 * time.Millisecond})
		}
	}

	base := nw.Now()
	if sc != nil {
		// Clients are fault-eligible; the origin and monitor are anchors
		// (crashing the only server measures the crash, not the queue).
		sc.Build(seed, ids, sp.horizon).ApplyAt(nw, base)
	}
	meter := newSLAMeter(sp.sla, base, len(reqs))
	ctl := x20Pinger(nw, monitor, origin.Node().ID(), base, sp.x18Spec)
	for _, r := range reqs {
		r := r
		c := clients[r.Client]
		meter.launch(nw, r.At, c.RPC().Node(), func(done func(bool)) {
			c.Call(origin.Node().ID(), "content.get", r.Object, 200, sp.timeout,
				func(resp any, err error) { done(err == nil) })
		})
	}
	nw.Run(base + sp.horizon + x18Grace)
	outcomes := meter.outcomes()
	return x20Result{
		cell: x20Cell{
			flashAvail: x20FlashAvail(outcomes, sp.x18Spec),
			avail:      meter.avail(),
			p95:        meter.p95(),
			ctlP95:     ctl.p95(),
			shed:       x20Sheds(nw),
		},
		outcomes: outcomes,
	}
}

// x20Replic is the replicated arm: X19's world at default replication
// cadence, the control pinger aimed at the flash object's pinned origin
// provider, and — when protected — the directory and every provider
// behind overload control.
func x20Replic(seed int64, sp x20Spec, protected bool, reqs []workload.Request, rs *workload.RegionSet, sc *fault.Scenario, engine simnet.NetworkConfig, det bool) x20Result {
	cfg := x20ReplicCfg(sp, protected)
	engine.Seed = seed
	nw := simnet.NewWithConfig(engine)
	nw.EnableQueueMetrics()
	dirNode := nw.AddNode()
	dir := replic.NewDirectoryWith(dirNode, sp.k, cfg.Overload)

	clientNodes := make([]*simnet.Node, sp.clients)
	ids := make([]simnet.NodeID, 0, sp.clients+sp.providers)
	for i := range clientNodes {
		clientNodes[i] = nw.AddNode()
		ids = append(ids, clientNodes[i].ID())
	}
	provNodes := make([]*simnet.Node, sp.providers)
	for i := range provNodes {
		provNodes[i] = nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
		ids = append(ids, provNodes[i].ID())
	}
	rs.Apply(nw, ids)
	regionOf := make(map[simnet.NodeID]int, len(ids))
	for i, id := range ids {
		regionOf[id] = rs.Assign(i)
	}
	monitor := simnet.NewRPCNode(nw.AddNode())
	if det {
		for _, n := range nw.Nodes() {
			n.SetProfile(simnet.LinkProfile{Latency: 5 * time.Millisecond})
		}
	}

	provs, clients, objs := x19Stock(sp.x19Spec, cfg, dirNode.ID(), provNodes, clientNodes, regionOf, rs)
	// The probe target is the provider the flash spike concentrates on:
	// the flash object's pinned origin.
	hot := provs[sp.flash.Object%sp.providers]
	hot.RPC().Serve("ctl.ping", func(from simnet.NodeID, req any) (any, int) { return req, 16 })
	if protected {
		hot.RPC().SetMethodLane("ctl.ping", simnet.LaneCtrl)
	}
	nw.Run(nw.Now() + time.Minute) // announces settle

	base := nw.Now()
	if sc != nil {
		sc.Build(seed, ids, sp.horizon).ApplyAt(nw, base)
	}
	meter := newSLAMeter(sp.sla, base, len(reqs))
	ctl := x20Pinger(nw, monitor, hot.Node().ID(), base, sp.x18Spec)
	replPeak := 0
	for i := 0; i <= x19Timeline; i++ {
		at := base + sp.horizon*time.Duration(i)/time.Duration(x19Timeline)
		nw.Schedule(at, func() {
			if v := dir.TotalReplicas(); v > replPeak {
				replPeak = v
			}
		})
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
	outcomes := meter.outcomes()
	return x20Result{
		cell: x20Cell{
			flashAvail: x20FlashAvail(outcomes, sp.x18Spec),
			avail:      meter.avail(),
			p95:        meter.p95(),
			ctlP95:     ctl.p95(),
			shed:       x20Sheds(nw),
			replPeak:   float64(replPeak),
		},
		outcomes: outcomes,
	}
}

// x20ArmSpec names one battery cell.
type x20ArmSpec struct {
	name      string
	replic    bool
	protected bool
	churn     bool
}

// x20Arms enumerates the battery in presentation order.
func x20Arms() []x20ArmSpec {
	return []x20ArmSpec{
		{"feudal-naive-clean", false, false, false},
		{"feudal-naive-churn", false, false, true},
		{"feudal-ovld-clean", false, true, false},
		{"feudal-ovld-churn", false, true, true},
		{"replic-naive-clean", true, false, false},
		{"replic-naive-churn", true, false, true},
		{"replic-ovld-clean", true, true, false},
		{"replic-ovld-churn", true, true, true},
	}
}

// x20Run dispatches one arm.
func x20Run(seed int64, sp x20Spec, arm x20ArmSpec, reqs []workload.Request, rs *workload.RegionSet, engine simnet.NetworkConfig, det bool) x20Result {
	var sc *fault.Scenario
	if arm.churn {
		churn := fault.RollingChurn()
		sc = &churn
	}
	if arm.replic {
		return x20Replic(seed, sp, arm.protected, reqs, rs, sc, engine, det)
	}
	return x20Feudal(seed, sp, arm.protected, reqs, rs, sc, engine, det)
}

// overloadMatrix is the numeric core of X20: one shared flash schedule,
// {feudal, replic} × {naive, ovld} × {clean, churn}.
func overloadMatrix(seed int64, tiny bool, engine simnet.NetworkConfig, det bool) Matrix {
	sp := x20SpecFor(tiny)
	reqs, rs := x18Stream(seed, sp.x18Spec, "flash")
	arms := x20Arms()
	rows := make([]string, len(arms))
	for i := range arms {
		rows[i] = arms[i].name
	}
	m := NewMatrix(rows, []string{"flash-avail%", "avail%", "p95(s)", "ctl-p95(s)", "shed", "repl-peak"})
	for r, arm := range arms {
		res := x20Run(seed, sp, arm, reqs, rs, engine, det)
		m.Vals[r][0] = res.cell.flashAvail * 100
		m.Vals[r][1] = res.cell.avail * 100
		m.Vals[r][2] = res.cell.p95
		m.Vals[r][3] = res.cell.ctlP95
		m.Vals[r][4] = res.cell.shed
		m.Vals[r][5] = res.cell.replPeak
	}
	return m
}

// x20Format renders one matrix into the X20 table.
func x20Format(m Matrix, title string) *Table {
	t := &Table{
		Title:   title,
		Headers: append([]string{"Arm"}, m.Cols...),
	}
	for r, name := range m.Rows {
		t.Add(name,
			fmt.Sprintf("%.1f%%", m.Vals[r][0]),
			fmt.Sprintf("%.1f%%", m.Vals[r][1]),
			fmt.Sprintf("%.2fs", m.Vals[r][2]),
			fmt.Sprintf("%.2fs", m.Vals[r][3]),
			fmt.Sprintf("%.0f", m.Vals[r][4]),
			fmt.Sprintf("%.0f", m.Vals[r][5]))
	}
	return t
}

// OverloadControl renders the single-seed X20 table at full scale.
func OverloadControl(seed int64) *Table {
	sp := x20SpecFor(false)
	m := overloadMatrix(seed, false, simnet.NetworkConfig{}, false)
	return x20Format(m, fmt.Sprintf(
		"X20: flash-crowd saturation — naive vs overload-controlled serving, feudal origin and %d-provider replic swarm",
		sp.providers))
}

// OverloadControlMulti is X20 aggregated over a batch of seeds on
// `workers` parallel trial runners (0 = GOMAXPROCS).
func OverloadControlMulti(seeds []int64, workers int) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix {
		return overloadMatrix(seed, false, simnet.NetworkConfig{}, false)
	})
	return agg.Table(
		"X20: flash-crowd saturation — naive vs overload-controlled serving",
		"Arm", "%.1f", "%.1f", "%.2f", "%.2f", "%.0f", "%.0f")
}

// OverloadControlTiny is the scaled-down X20 the registry tests run.
func OverloadControlTiny(seed int64) *Table {
	m := overloadMatrix(seed, true, simnet.NetworkConfig{}, false)
	return x20Format(m, "X20 (tiny): flash-crowd saturation, naive vs overload-controlled serving")
}
