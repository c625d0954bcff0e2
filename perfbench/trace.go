package main

import "time"

// tracer records spans around the benchmark's own calls into each layer's
// public functions. A nil or disabled tracer costs one branch per call, so
// the untraced run that produces the end-to-end metrics pays nothing for
// the instrumentation.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int32
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is the index of the enclosing span, or -1 for a root.
type span struct {
	name       string
	parent     int32
	start, end int64
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span nested inside the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStat is the per-name aggregate: how often a layer was entered, the
// total time inside it (busy), and that time minus the part its child
// spans cover (self).
type spanStat struct {
	calls int
	busy  time.Duration
	self  time.Duration
}

// aggregate folds a span list into per-name totals. A span's self time is
// its duration minus its children's durations; children of one parent
// never overlap, because spans nest on a single stack.
func aggregate(spans []span) map[string]spanStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]spanStat{}
	for i, s := range spans {
		st := out[s.name]
		st.calls++
		st.busy += time.Duration(s.end - s.start)
		st.self += time.Duration(s.end - s.start - child[i])
		out[s.name] = st
	}
	return out
}
