package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// refEvent mirrors one scheduled event for the reference implementation:
// a plain sorted list, the simplest possible correct scheduler.
type refEvent struct {
	at  time.Duration
	seq int
	id  int
}

// TestSchedulerMatchesReferenceOrder is the property test for the indexed
// heap: any batch of events, scheduled in any order at any (possibly equal)
// times, must run in exactly the order a sort by (time, schedule order)
// produces.
func TestSchedulerMatchesReferenceOrder(t *testing.T) {
	prop := func(delays []uint16) bool {
		var en engine
		var got []int
		ref := make([]refEvent, len(delays))
		for i, d := range delays {
			at := time.Duration(d) * time.Millisecond
			i := i
			en.Schedule(at, func() { got = append(got, i) })
			ref[i] = refEvent{at: at, seq: i, id: i}
		}
		for en.step() {
		}
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].at < ref[b].at })
		if len(got) != len(ref) {
			return false
		}
		for i, r := range ref {
			if got[i] != r.id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerCancelProperty: from a random batch of timers, cancel a
// random subset before running. Cancelled timers must never fire and the
// survivors must all fire exactly once, still in (time, seq) order.
func TestSchedulerCancelProperty(t *testing.T) {
	prop := func(delays []uint16, cancelMask []bool) bool {
		var en engine
		fired := make([]int, len(delays))
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = en.AfterTimer(time.Duration(d)*time.Millisecond, func() { fired[i]++ })
		}
		cancelled := make([]bool, len(delays))
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				if !timers[i].Cancel() {
					return false // a pending timer must report cancellation
				}
				cancelled[i] = true
				if timers[i].Cancel() {
					return false // double cancel must be a no-op
				}
			}
		}
		for en.step() {
		}
		for i := range fired {
			want := 1
			if cancelled[i] {
				want = 0
			}
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerRescheduleProperty: rescheduled timers fire exactly once, at
// the new time, never the old one.
func TestSchedulerRescheduleProperty(t *testing.T) {
	prop := func(delays []uint16, moves []uint16) bool {
		var en engine
		n := len(delays)
		if n > len(moves) {
			n = len(moves)
		}
		fired := make([]time.Duration, len(delays))
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = en.AfterTimer(time.Duration(d)*time.Millisecond, func() { fired[i] = en.now })
		}
		want := make([]time.Duration, len(delays))
		for i, d := range delays {
			want[i] = time.Duration(d) * time.Millisecond
		}
		for i := 0; i < n; i++ {
			at := time.Duration(moves[i]) * time.Millisecond
			if !timers[i].Reschedule(at) {
				return false
			}
			want[i] = at
		}
		for en.step() {
		}
		for i := range fired {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTimerStaleAfterFire: once a timer fires, its handle is inert even
// though the pooled event struct is recycled for later schedules.
func TestTimerStaleAfterFire(t *testing.T) {
	var en engine
	ran := 0
	tm := en.AfterTimer(time.Millisecond, func() { ran++ })
	for en.step() {
	}
	if ran != 1 {
		t.Fatalf("timer ran %d times", ran)
	}
	if tm.Active() {
		t.Error("fired timer still active")
	}
	if tm.Cancel() {
		t.Error("cancelling a fired timer should report false")
	}
	// Recycle the event struct for an unrelated schedule; the stale handle
	// must not be able to cancel it.
	other := 0
	en.AfterTimer(time.Millisecond, func() { other++ })
	tm.Cancel()
	for en.step() {
	}
	if other != 1 {
		t.Error("stale handle cancelled an unrelated recycled event")
	}
}

// TestTimerZeroValueInert: the zero Timer is safe to cancel, reschedule,
// and query.
func TestTimerZeroValueInert(t *testing.T) {
	var tm Timer
	if tm.Active() {
		t.Error("zero timer active")
	}
	if tm.Cancel() {
		t.Error("zero timer cancelled")
	}
	if tm.Reschedule(time.Second) {
		t.Error("zero timer rescheduled")
	}
	if tm.When() != 0 {
		t.Error("zero timer has a fire time")
	}
}

// TestSchedulerStressRandomOps drives the heap through a long random mix of
// schedule/cancel/reschedule/step operations, cross-checking every firing
// against the reference list implementation.
func TestSchedulerStressRandomOps(t *testing.T) {
	var en engine
	stressScheduler(t, &en, 0)
}

// TestSchedulerStressKeyedOrigins is the same stress test with events from
// several origins on one heap: origin 0 keyed by the engine counter, as
// the single-heap engine and the control heap key them, and node origins
// keyed by each node's own counter, as shards key them. Every firing must
// follow a sort by (at, origin, oseq).
func TestSchedulerStressKeyedOrigins(t *testing.T) {
	nw := NewWithConfig(NetworkConfig{Seed: 1, Shards: 1, Workers: 1})
	for i := 0; i < 4; i++ {
		nw.AddNode()
	}
	stressScheduler(t, &nw.shards[0].engine, nw.NumNodes())
}

// stressScheduler runs the random-ops stress test on en, scheduling from
// origins 0..nodes (node origins need en.nw to hold that many nodes).
func stressScheduler(t *testing.T, en *engine, nodes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	type refKey struct {
		at     time.Duration
		origin uint64
		oseq   uint64
		id     int
	}
	type live struct {
		tm Timer
		id int
	}
	var pendingRef []refKey // reference queue, kept sorted lazily
	var handles []live
	var got, want []int
	nextID := 0
	fire := func(id int) func() { return func() { got = append(got, id) } }
	popRef := func() {
		sort.Slice(pendingRef, func(a, b int) bool {
			x, y := pendingRef[a], pendingRef[b]
			if x.at != y.at {
				return x.at < y.at
			}
			if x.origin != y.origin {
				return x.origin < y.origin
			}
			return x.oseq < y.oseq
		})
		want = append(want, pendingRef[0].id)
		pendingRef = pendingRef[1:]
	}
	// refSeq mirrors the per-origin counters: the engine's for origin 0,
	// each node's for the others.
	refSeq := make([]uint64, nodes+1)
	next := func(origin uint64) uint64 {
		refSeq[origin]++
		return refSeq[origin]
	}
	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // schedule
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			origin := uint64(0)
			if nodes > 0 {
				origin = uint64(rng.Intn(nodes + 1))
			}
			id := nextID
			nextID++
			var tm Timer
			if origin == 0 {
				tm = en.AfterTimer(d, fire(id))
			} else {
				tm = timerOf(en.schedule(en.now+d, origin, fire(id), nil, nil))
			}
			handles = append(handles, live{tm: tm, id: id})
			pendingRef = append(pendingRef, refKey{at: en.now + d, origin: origin, oseq: next(origin), id: id})
		case r < 7: // cancel a random handle (may already be fired/cancelled)
			if len(handles) == 0 {
				continue
			}
			h := handles[rng.Intn(len(handles))]
			if h.tm.Cancel() {
				for i, e := range pendingRef {
					if e.id == h.id {
						pendingRef = append(pendingRef[:i], pendingRef[i+1:]...)
						break
					}
				}
			}
		case r < 8: // reschedule a random handle
			if len(handles) == 0 {
				continue
			}
			h := handles[rng.Intn(len(handles))]
			at := en.now + time.Duration(rng.Intn(1000))*time.Millisecond
			if h.tm.Reschedule(at) {
				for i := range pendingRef {
					if pendingRef[i].id == h.id {
						pendingRef[i].at = at
						pendingRef[i].oseq = next(pendingRef[i].origin)
						break
					}
				}
			}
		default: // step
			if en.pending() > 0 {
				popRef()
				en.step()
			}
		}
	}
	for en.pending() > 0 {
		popRef()
		en.step()
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing %d: got event %d, reference says %d", i, got[i], want[i])
		}
	}
}
