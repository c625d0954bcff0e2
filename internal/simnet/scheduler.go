package simnet

import (
	"sync"
	"time"
)

// This file is the *engine* half of simnet's engine/substrate split: a
// discrete-event scheduler that knows nothing about links or messages; a
// node appears here only as the origin half of an event key. The
// substrate (Network, Node) layers network semantics on top. Both engine
// modes run on this one queue type: the single-heap engine is one engine,
// and the sharded engine is one engine per shard plus the control heap.
//
// Design points:
//
//   - Events live in an indexed binary heap: each event records its heap
//     position, so cancellation and rescheduling are O(log n) instead of
//     requiring lazy tombstones that bloat the queue.
//   - Events are recycled through a sync.Pool and carry a handler+argument
//     pair (EventFunc + arg) instead of a captured closure, so the message
//     hot path allocates nothing in steady state.
//   - Timer handles are generation-checked: a Timer that already fired or
//     was cancelled becomes an inert no-op even after its event struct has
//     been recycled for an unrelated schedule.

// EventFunc is a closure-free event callback: the scheduler invokes it with
// the argument it was registered with. Hot paths should prefer EventFunc
// over closures to avoid a capture allocation per event.
type EventFunc func(arg any)

// Scheduler is the engine interface protocols program against: virtual
// time, fire-and-forget scheduling, and cancellable timers. *Network
// implements it.
type Scheduler interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Schedule runs fn at absolute virtual time at (clamped to Now).
	Schedule(at time.Duration, fn func())
	// After runs fn after d of virtual time.
	After(d time.Duration, fn func())
	// ScheduleCall is the closure-free variant of Schedule; it returns a
	// Timer that can cancel or reschedule the event before it fires.
	ScheduleCall(at time.Duration, h EventFunc, arg any) Timer
	// AfterCall is the closure-free variant of After.
	AfterCall(d time.Duration, h EventFunc, arg any) Timer
}

// event is one scheduled occurrence. Events are pooled; gen disambiguates
// successive uses of the same struct so stale Timer handles stay inert.
//
// Every queue orders its events by the key (at, origin, oseq): the virtual
// time, the scheduling entity (node id + 1, or 0 for events keyed by the
// engine's own counter), and that entity's private monotone sequence
// number. Events with origin 0 take oseq from the engine counter, so a
// queue that only ever sees origin 0 (the single-heap engine and the
// sharded control heap) runs equal-time events in schedule order. Node
// origins make the key independent of the shard layout and worker count,
// which is what makes sharded execution reproducible across
// NetworkConfig{Shards, Workers} settings (see shard.go).
type event struct {
	at     time.Duration
	origin uint64
	oseq   uint64
	gen    uint64  // bumped every time the event fires or is cancelled
	pos    int     // index in the heap, -1 when not queued
	q      *engine // the queue holding the event, set by push
	fn     func()  // closure path (convenience API)
	h      EventFunc
	arg    any
}

// engine is the concrete scheduler: virtual clock plus indexed event heap.
type engine struct {
	now  time.Duration
	seq  uint64 // counter for origin-0 event keys
	heap []*event
	// pool recycles the events this engine runs or cancels. It belongs to
	// one engine, not the package, so events never migrate between
	// networks: a stale Timer handle reads its event's generation, which a
	// network running concurrently on another goroutine must not be
	// reusing. Within a sharded network events do move between shard
	// pools (an arrival is built on the sender's shard and freed on the
	// receiver's); sync.Pool is safe under worker parallelism, and pooling
	// affects only allocation, never ordering.
	pool sync.Pool
	// nw resolves node origins to their sequence counters when an event
	// is keyed or re-keyed; nil on a bare engine, which only ever keys by
	// its own counter.
	nw *Network
}

// Timer is a handle on a scheduled event. The zero Timer is inert. Timers
// are values; copying one copies the handle, not the event.
type Timer struct {
	e   *event
	gen uint64
}

func timerOf(e *event) Timer { return Timer{e: e, gen: e.gen} }

// Active reports whether the timer is still pending (not fired, not
// cancelled, not rescheduled away by another handle).
func (t Timer) Active() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.pos >= 0
}

// When returns the virtual time the timer will fire at, or 0 if inactive.
func (t Timer) When() time.Duration {
	if !t.Active() {
		return 0
	}
	return t.e.at
}

// Now implements Scheduler.
func (en *engine) Now() time.Duration { return en.now }

func (en *engine) alloc() *event {
	if e, ok := en.pool.Get().(*event); ok {
		return e
	}
	return new(event)
}

// free recycles a dequeued event. The generation bump invalidates every
// outstanding Timer handle pointing at it.
func (en *engine) free(e *event) {
	e.gen++
	e.fn, e.h, e.arg, e.q = nil, nil, nil, nil
	en.pool.Put(e)
}

// nextSeq draws the oseq half of a new key for origin: the engine's own
// counter for origin 0, the node's counter for any other origin.
func (en *engine) nextSeq(origin uint64) uint64 {
	if origin == 0 {
		en.seq++
		return en.seq
	}
	return en.nw.nodes[origin-1].nextOseq()
}

// newEvent builds an unqueued event keyed (at, origin, next seq of
// origin). The caller pushes it onto this or another engine's heap.
func (en *engine) newEvent(at time.Duration, origin uint64, fn func(), h EventFunc, arg any) *event {
	e := en.alloc()
	e.at, e.origin, e.oseq = at, origin, en.nextSeq(origin)
	e.fn, e.h, e.arg = fn, h, arg
	return e
}

// schedule queues an event on this engine at absolute time at (clamped to
// Now) under origin's next key.
func (en *engine) schedule(at time.Duration, origin uint64, fn func(), h EventFunc, arg any) *event {
	if at < en.now {
		at = en.now
	}
	e := en.newEvent(at, origin, fn, h, arg)
	en.push(e)
	return e
}

// control schedules an origin-0 event through the public Scheduler API.
// On a sharded network that API is the control heap, which the window
// coordinator owns: node code running inside a parallel window would race
// it (or, at one worker, order its event by shard layout), so such a call
// panics. Node code schedules through its Node instead.
func (en *engine) control(at time.Duration, fn func(), h EventFunc, arg any) *event {
	if en.nw != nil && en.nw.inWindow {
		panic("simnet: Network.Schedule/After called from inside a sharded window; schedule node work through the Node (Node.After, Node.AfterCall, Node.AfterTimer)")
	}
	return en.schedule(at, 0, fn, h, arg)
}

// Schedule implements Scheduler (fire-and-forget closure form).
func (en *engine) Schedule(at time.Duration, fn func()) { en.control(at, fn, nil, nil) }

// After implements Scheduler.
func (en *engine) After(d time.Duration, fn func()) { en.control(en.now+d, fn, nil, nil) }

// ScheduleCall implements Scheduler.
func (en *engine) ScheduleCall(at time.Duration, h EventFunc, arg any) Timer {
	return timerOf(en.control(at, nil, h, arg))
}

// AfterCall implements Scheduler.
func (en *engine) AfterCall(d time.Duration, h EventFunc, arg any) Timer {
	return en.ScheduleCall(en.now+d, h, arg)
}

// AfterTimer schedules a closure and returns a cancellable Timer for it.
// Protocol retry/timeout patterns use this to cancel the timeout when the
// awaited reply arrives instead of leaving a dead event in the queue.
func (en *engine) AfterTimer(d time.Duration, fn func()) Timer {
	return timerOf(en.control(en.now+d, fn, nil, nil))
}

// Cancel removes the event from the queue so it never fires. It reports
// whether the timer was still pending; cancelling an already-fired,
// already-cancelled, or zero Timer is a safe no-op.
func (t Timer) Cancel() bool {
	if !t.Active() {
		return false
	}
	en := t.e.q
	en.remove(t.e)
	en.free(t.e)
	return true
}

// Reschedule moves a still-pending timer to fire at absolute time at
// (clamped to Now), as if its owner had freshly scheduled it there: the
// event is re-keyed with its origin's next sequence number, so among
// equal-time events it runs after those its origin already queued. It
// reports whether the timer was pending; a fired or cancelled timer cannot
// be revived.
func (t Timer) Reschedule(at time.Duration) bool {
	if !t.Active() {
		return false
	}
	en := t.e.q
	if at < en.now {
		at = en.now
	}
	t.e.at, t.e.oseq = at, en.nextSeq(t.e.origin)
	en.fix(t.e)
	return true
}

// step pops and runs the earliest event, advancing the clock. It reports
// whether an event ran.
func (en *engine) step() bool {
	if len(en.heap) == 0 {
		return false
	}
	e := en.pop()
	en.now = e.at
	fn, h, arg := e.fn, e.h, e.arg
	en.free(e) // recycle before invoking: the handler may schedule again
	if h != nil {
		h(arg)
	} else if fn != nil {
		fn()
	}
	return true
}

// runThrough runs, in key order, every queued event due at or before t,
// including events that land by t while it runs.
func (en *engine) runThrough(t time.Duration) {
	for len(en.heap) > 0 && en.heap[0].at <= t {
		en.step()
	}
}

// peekTime returns the time of the earliest pending event.
func (en *engine) peekTime() (time.Duration, bool) {
	if len(en.heap) == 0 {
		return 0, false
	}
	return en.heap[0].at, true
}

// pending returns how many events are queued.
func (en *engine) pending() int { return len(en.heap) }

// --- indexed binary heap -------------------------------------------------
//
// A hand-rolled heap (rather than container/heap) keeps events' positions
// up to date without interface boxing on every operation.

func (en *engine) less(i, j int) bool {
	a, b := en.heap[i], en.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.oseq < b.oseq
}

func (en *engine) swap(i, j int) {
	h := en.heap
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (en *engine) push(e *event) {
	e.q, e.pos = en, len(en.heap)
	en.heap = append(en.heap, e)
	en.up(e.pos)
}

func (en *engine) pop() *event {
	e := en.heap[0]
	last := len(en.heap) - 1
	en.swap(0, last)
	en.heap[last] = nil
	en.heap = en.heap[:last]
	if last > 0 {
		en.down(0)
	}
	e.pos = -1
	return e
}

// remove unlinks an arbitrary queued event (timer cancellation).
func (en *engine) remove(e *event) {
	i := e.pos
	last := len(en.heap) - 1
	if i != last {
		en.swap(i, last)
	}
	en.heap[last] = nil
	en.heap = en.heap[:last]
	if i != last {
		if !en.up(i) {
			en.down(i)
		}
	}
	e.pos = -1
}

// fix restores heap order after e's time changed (timer rescheduling).
func (en *engine) fix(e *event) {
	if !en.up(e.pos) {
		en.down(e.pos)
	}
}

func (en *engine) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !en.less(i, parent) {
			break
		}
		en.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (en *engine) down(i int) {
	n := len(en.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && en.less(right, left) {
			least = right
		}
		if !en.less(least, i) {
			return
		}
		en.swap(i, least)
		i = least
	}
}
