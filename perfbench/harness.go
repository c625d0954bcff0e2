package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// world is one fully built simulation. run is the timed phase; result
// scores it afterwards from the merged obs snapshot of every registry the
// round created, outside the timed window.
type world interface {
	run(tr *tracer)
	result(snap *obs.Snapshot) outcome
}

// workloadSpec names a workload and builds its world from a seed. workers
// is the sharded engine's worker count; workloads on the single-heap engine
// ignore it.
type workloadSpec struct {
	name  string
	why   string // one line for BENCHMARK.json
	setup func(seed int64, workers int, tr *tracer) world
	// sharded marks the workload whose world runs on the sharded engine,
	// the only one whose traced run also measures Workers=1.
	sharded bool
}

// outcome is what one round did, in counts that repeat exactly for a
// fixed seed.
type outcome struct {
	attempted int       // simulated operations launched
	ok        int       // of those, operations that met their goal
	ops       int64     // throughput numerator (ops_per_s)
	lat       []float64 // operation latencies, virtual seconds
	counts    map[string]float64
	// digest fingerprints the round's simulated results; rounds that
	// replay a sub-seed must reproduce it.
	digest string
	err    error // a failed correctness check
}

// msgsTimed is the count of messages delivered in the timed phase, the
// numerator of msgs_per_s; simnet.msgs.delivered also counts set-up.
const msgsTimed = "simnet.msgs.timed"

// simnetCounts reads the substrate's message totals and queue sojourn.
func simnetCounts(snap *obs.Snapshot, timedDelivered int64) map[string]float64 {
	return map[string]float64{
		msgsTimed:                    float64(timedDelivered),
		"simnet.msgs.delivered":      float64(snap.Counters["net.msg.delivered"]),
		"simnet.msgs.dropped":        float64(snap.Counters["net.msg.dropped"]),
		"simnet.queue.sojourn_p99_s": snap.Histograms["net.queue.sojourn_s"].P99,
	}
}

// resilCounts derives the resilience layer's per-call figures. The layer
// observes its RTO once per launched attempt, so attempts are the
// resil.rto_s sample count; every operation launches exactly one primary
// attempt, and the rest are retries and hedges (fast-failed operations
// launch none).
func resilCounts(snap *obs.Snapshot) map[string]float64 {
	c := snap.Counters
	attempts := float64(snap.Histograms["resil.rto_s"].Count)
	retries, hedges := float64(c["resil.retry.count"]), float64(c["resil.hedge.fired"])
	primaries := attempts - retries - hedges
	return map[string]float64{
		"resil.calls":             primaries + float64(c["resil.fastfail.count"]),
		"resil.retry.count":       retries,
		"resil.hedge.fired":       hedges,
		"resil.hedge.won":         float64(c["resil.hedge.won"]),
		"resil.breaker.open":      float64(c["resil.breaker.open"]),
		"resil.shed.count":        float64(c["resil.shed.count"]),
		"resil.attempts_per_call": ratio(attempts, primaries),
	}
}

// round is one set-up-and-run cycle of a workload.
type round struct {
	sub, workers int // sub-seed index and sharded worker count
	// setup and wall are the elapsed times of building the world and of
	// the timed phase.
	setup, wall  time.Duration
	allocBytes   uint64
	allocObjects uint64
	peakLive     uint64
	gcCPU        float64 // GC CPU seconds in the timed phase (runtime/metrics)
	out          outcome
	snapJSON     []byte
	spans        []span
	profile      []byte
}

// runRound builds and runs one world. GC runs first so that one round's
// garbage is not charged to the next.
func runRound(w workloadSpec, seed int64, workers int, traced bool) round {
	var r round
	tr := newTracer(traced)
	col := obs.NewCollector()
	restore := obs.SetCollector(col)
	defer restore()

	runtime.GC()
	t0 := time.Now()
	wd := w.setup(seed, workers, tr)
	r.setup = time.Since(t0)

	hw := startHeapWatch()
	a0 := readMetric("/gc/heap/allocs:bytes")
	o0 := readMetric("/gc/heap/allocs:objects")
	g0 := readFloatMetric("/cpu/classes/gc/total:cpu-seconds")
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.out.err = fmt.Errorf("cpu profile: %w", err)
			return r
		}
	}
	t1 := time.Now()
	wd.run(tr)
	r.wall = time.Since(t1)
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	r.allocBytes = readMetric("/gc/heap/allocs:bytes") - a0
	r.allocObjects = readMetric("/gc/heap/allocs:objects") - o0
	r.gcCPU = readFloatMetric("/cpu/classes/gc/total:cpu-seconds") - g0
	r.peakLive = hw.stop()
	runtime.KeepAlive(wd)

	snap := col.Merged()
	r.out = wd.result(snap)
	if js, err := json.Marshal(snap); err == nil {
		r.snapJSON = js
	}
	r.spans = tr.spans
	return r
}

// readMetric reads one uint64 runtime/metrics sample.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func readFloatMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapWatch tracks the peak live heap across a timed phase: a finalizer
// sentinel re-arms itself after every GC cycle and reads the live heap the
// cycle measured; stop forces one last cycle to include the final state.
type heapWatch struct {
	mu   sync.Mutex
	peak uint64
	done bool
}

type sentinel struct{ _ [64]byte }

func startHeapWatch() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.done {
			return
		}
		h.sampleLocked()
		h.arm()
	})
}

func (h *heapWatch) sampleLocked() {
	if v := readMetric("/gc/heap/live:bytes"); v > h.peak {
		h.peak = v
	}
}

func (h *heapWatch) stop() uint64 {
	runtime.GC()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sampleLocked()
	h.done = true
	return h.peak
}

// check compares a round against the run's first round: the same seed
// must give the same simulated results.
func (r *round) check(first *round) error {
	if r.out.err != nil {
		return r.out.err
	}
	if r.out.digest != first.out.digest {
		return fmt.Errorf("round results differ from the first round's (digest %s vs %s)", r.out.digest, first.out.digest)
	}
	if !bytes.Equal(r.snapJSON, first.snapJSON) {
		return fmt.Errorf("merged obs snapshot differs from the first round's")
	}
	return nil
}

// digestOf fingerprints any JSON-encodable result.
func digestOf(v any) string {
	js, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:8])
}

// quantile returns the q-quantile of xs (nearest rank on sorted data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
