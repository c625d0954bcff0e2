package experiments

import (
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// slaMeter scores requests against a latency SLA: a request is available
// iff its operation completes successfully within sla of launch. It is the
// one meter behind X16's probes, X18–X20's request streams and X20's
// control ping.
//
// Each launch owns a preallocated slot that only its completion callback
// writes, and the callback reads the requester's own clock, so the meter
// is race-free on the sharded engine — where callbacks of different
// requesters run on different shard workers — and measures the same
// latency at every layout. The reductions run after Run and walk the slots
// in launch order.
type slaMeter struct {
	sla   time.Duration
	base  time.Duration
	slots []slaSlot
}

// slaOutcome is one completed request's fate — the conformance suite
// asserts availability over time windows from these.
type slaOutcome struct {
	at time.Duration // launch offset from the meter's base
	ok bool          // completed successfully within sla
}

// slaSlot is one launched request's state; lat and the outcome's ok are
// set when it completes.
type slaSlot struct {
	slaOutcome
	lat  time.Duration
	done bool
}

// newSLAMeter returns a meter whose launch offsets are relative to base,
// with room for n launches.
func newSLAMeter(sla, base time.Duration, n int) *slaMeter {
	return &slaMeter{sla: sla, base: base, slots: make([]slaSlot, 0, n)}
}

// launch schedules op at base+at as a control event. op must call done
// exactly once when the request resolves; a request whose done never runs
// stays unanswered and counts against avail. requester is the clock of
// the node that issues the request: on the single-heap engine every node
// reads the network's clock, while on the sharded engine only the
// requester's shard clock is exact when its callback runs. Every launch
// must precede the Run that executes it: a launch appends a slot, which
// may move the slots completion callbacks write into.
func (m *slaMeter) launch(nw *simnet.Network, at time.Duration, requester interface{ Now() time.Duration }, op func(done func(ok bool))) {
	i := len(m.slots)
	m.slots = append(m.slots, slaSlot{slaOutcome: slaOutcome{at: at}})
	launched := m.base + at
	nw.Schedule(launched, func() {
		op(func(ok bool) {
			s := &m.slots[i]
			s.lat = requester.Now() - launched
			s.done = true
			s.ok = ok && s.lat <= m.sla
		})
	})
}

// hits counts the requests that completed successfully within the SLA.
func (m *slaMeter) hits() int {
	n := 0
	for _, s := range m.slots {
		if s.ok {
			n++
		}
	}
	return n
}

// avail is the fraction of launched requests answered within the SLA;
// unanswered requests count as misses. 0 when nothing was launched.
func (m *slaMeter) avail() float64 {
	if len(m.slots) == 0 {
		return 0
	}
	return float64(m.hits()) / float64(len(m.slots))
}

// p95 is the 95th-percentile latency in seconds over completed requests,
// successful or not.
func (m *slaMeter) p95() float64 {
	var h obs.Histogram
	for _, s := range m.slots {
		if s.done {
			h.Observe(s.lat.Seconds())
		}
	}
	return h.Quantile(0.95)
}

// outcomes lists the completed requests in launch order.
func (m *slaMeter) outcomes() []slaOutcome {
	out := make([]slaOutcome, 0, len(m.slots))
	for _, s := range m.slots {
		if s.done {
			out = append(out, s.slaOutcome)
		}
	}
	return out
}
