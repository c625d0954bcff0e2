package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored
	if got := r.Counter("x.count").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	r.Gauge("x.gauge").Set(2.5)
	if got := r.Gauge("x.gauge").Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("x.hist")
	for _, v := range []float64{3, 1, 2, 4} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := h.Sum(); got != 10 {
		t.Errorf("sum = %v, want 10", got)
	}
}

func TestSpanAndTracing(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(2)
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("op.duration", time.Duration(i)*time.Second)
		sp.End(time.Duration(i)*time.Second + 500*time.Millisecond)
	}
	if got := r.Histogram("op.duration").Count(); got != 3 {
		t.Errorf("span observations = %d, want 3", got)
	}
	if got := len(r.Events()); got != 2 {
		t.Errorf("retained events = %d, want 2 (cap)", got)
	}
	s := r.Snapshot()
	if s.EventsDropped != 1 {
		t.Errorf("events_dropped = %d, want 1", s.EventsDropped)
	}
	var zero Span
	zero.End(time.Second) // must not panic
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b.count").Add(7)
		r.Counter("a.count").Add(3)
		r.Gauge("g").Set(1.25)
		r.Histogram("h").Observe(0.5)
		r.Histogram("h").Observe(1.5)
		return r
	}
	var a, b bytes.Buffer
	if err := build().Snapshot().EncodeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("snapshot JSON not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"a.count": 3`) {
		t.Errorf("snapshot JSON missing counter: %s", a.String())
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	mk := func(label string, gauge float64, samples ...float64) *Registry {
		r := NewRegistry()
		r.SetLabel(label)
		r.Counter("c").Add(int64(len(samples)))
		r.Gauge("g").Set(gauge)
		for _, v := range samples {
			r.Histogram("h").Observe(v)
		}
		return r
	}
	fwd := []*Registry{mk("seed:1", 0.1, 1, 2), mk("seed:2", 0.3, 3), mk("seed:3", 0.2, 4, 5)}
	rev := []*Registry{mk("seed:3", 0.2, 4, 5), mk("seed:2", 0.3, 3), mk("seed:1", 0.1, 1, 2)}
	var a, b bytes.Buffer
	if err := MergeRegistries(fwd).EncodeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := MergeRegistries(rev).EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("merge depends on registry order:\n%s\nvs\n%s", a.String(), b.String())
	}
	s := MergeRegistries(fwd)
	if s.Counters["c"] != 5 {
		t.Errorf("merged counter = %d, want 5", s.Counters["c"])
	}
	if got := s.Histograms["h"].Count; got != 5 {
		t.Errorf("merged histogram count = %d, want 5", got)
	}
}

func TestOnPublishHook(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.OnPublish(func(reg *Registry) {
		calls++
		reg.Counter("hooked").Set(42)
	})
	s := r.Snapshot()
	if s.Counters["hooked"] != 42 {
		t.Errorf("publish hook did not run: %v", s.Counters)
	}
	_ = r.Snapshot()
	if calls != 2 {
		t.Errorf("hook calls = %d, want 2 (once per snapshot)", calls)
	}
}

func TestCollectorAttach(t *testing.T) {
	col := NewCollector()
	restore := SetCollector(col)
	r := NewRegistry()
	AttachCurrent(r)
	restore()
	AttachCurrent(NewRegistry()) // no collector installed: dropped
	if col.Len() != 1 {
		t.Errorf("collector holds %d registries, want 1", col.Len())
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.msg.sent").Add(9)
	r.Histogram("dht.lookup.hops").Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "type,name,field,value\n") {
		t.Errorf("missing CSV header: %q", out)
	}
	for _, want := range []string{"counter,net.msg.sent,value,9", "histogram,dht.lookup.hops,count,1"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := h.Quantile(0.95); math.Abs(got-95.05) > 1e-9 {
		t.Errorf("p95 = %v, want 95.05", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
	if got := h.Quantile(0.99); got < 99 || got > 100 {
		t.Errorf("p99 = %v, want in [99,100]", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Quantile(0.5) // forces a sort
	h.Observe(1)        // must invalidate the sorted flag
	if got := h.Quantile(0); got != 1 {
		t.Errorf("min after re-observe = %v, want 1", got)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		if h.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
