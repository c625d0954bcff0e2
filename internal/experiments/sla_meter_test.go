package experiments

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
)

// manualClock is a requester clock the test sets by hand before each
// completion.
type manualClock struct{ now time.Duration }

func (c *manualClock) Now() time.Duration { return c.now }

// slaReq is one scripted request: launched at offset at, answered (or
// not) after lat with success flag ok.
type slaReq struct {
	at, lat  time.Duration
	ok       bool
	answered bool
}

// runSLAMeter launches reqs on a fresh meter (SLA 2s, base 10s), fires
// every launch, then completes the answered requests in the given order.
func runSLAMeter(t *testing.T, reqs []slaReq, order []int) *slaMeter {
	t.Helper()
	const base = 10 * time.Second
	nw := simnet.New(1)
	clock := &manualClock{}
	m := newSLAMeter(2*time.Second, base, len(reqs))
	dones := make([]func(bool), len(reqs))
	for i, r := range reqs {
		i := i
		m.launch(nw, r.at, clock, func(done func(bool)) { dones[i] = done })
	}
	nw.RunAll()
	for _, i := range order {
		if dones[i] == nil {
			t.Fatalf("request %d never launched", i)
		}
		if !reqs[i].answered {
			continue
		}
		clock.now = base + reqs[i].at + reqs[i].lat
		dones[i](reqs[i].ok)
	}
	return m
}

func TestSLAMeterIndependentOfCompletionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reqs := make([]slaReq, 40)
	for i := range reqs {
		reqs[i] = slaReq{
			at:       time.Duration(i) * 500 * time.Millisecond,
			lat:      time.Duration(rng.Int63n(int64(4 * time.Second))),
			ok:       rng.Intn(4) != 0,
			answered: rng.Intn(8) != 0,
		}
	}
	order := rng.Perm(len(reqs))
	want := runSLAMeter(t, reqs, order)
	if len(want.outcomes()) == 0 || want.hits() == 0 {
		t.Fatal("scripted run produced no completions or no hits")
	}
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got := runSLAMeter(t, reqs, order)
		if got.avail() != want.avail() || got.p95() != want.p95() {
			t.Fatalf("order %v: avail/p95 = %v/%v, want %v/%v",
				order, got.avail(), got.p95(), want.avail(), want.p95())
		}
		if !reflect.DeepEqual(got.outcomes(), want.outcomes()) {
			t.Fatalf("order %v: outcomes differ", order)
		}
	}
	// Outcomes come back in launch order whatever the completion order.
	outs := want.outcomes()
	for i := 1; i < len(outs); i++ {
		if outs[i].at <= outs[i-1].at {
			t.Fatalf("outcomes out of launch order at %d: %v after %v", i, outs[i].at, outs[i-1].at)
		}
	}
}

func TestSLAMeterUnansweredIsMissNotOutcome(t *testing.T) {
	reqs := []slaReq{
		{at: 0, lat: time.Second, ok: true, answered: true},
		{at: time.Second, answered: false},
	}
	m := runSLAMeter(t, reqs, []int{0, 1})
	if got := m.avail(); got != 0.5 {
		t.Errorf("avail = %v, want 0.5 (unanswered launch is a miss)", got)
	}
	want := []slaOutcome{{at: 0, ok: true}}
	if got := m.outcomes(); !reflect.DeepEqual(got, want) {
		t.Errorf("outcomes = %v, want %v (unanswered launch absent)", got, want)
	}
	if got := m.p95(); got != 1 {
		t.Errorf("p95 = %v, want 1", got)
	}
}

func TestSLAMeterFailedCompletionFeedsP95(t *testing.T) {
	reqs := []slaReq{
		{at: 0, lat: time.Second, ok: true, answered: true},
		{at: time.Second, lat: 9 * time.Second, ok: false, answered: true},
		{at: 2 * time.Second, lat: 3 * time.Second, ok: true, answered: true}, // past the 2s SLA
	}
	m := runSLAMeter(t, reqs, []int{2, 1, 0})
	if got, want := m.p95(), 3*0.1+9*0.9; math.Abs(got-want) > 1e-12 {
		t.Errorf("p95 = %v, want %v (the failed request's 9s counts)", got, want)
	}
	if got := m.avail(); got != 1.0/3 {
		t.Errorf("avail = %v, want 1/3", got)
	}
	want := []slaOutcome{{at: 0, ok: true}, {at: time.Second, ok: false}, {at: 2 * time.Second, ok: false}}
	if got := m.outcomes(); !reflect.DeepEqual(got, want) {
		t.Errorf("outcomes = %v, want %v", got, want)
	}
}
