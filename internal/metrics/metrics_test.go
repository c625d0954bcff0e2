package metrics

import (
	"math"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	h.Observe(-1)
	h.Observe(10) // hi is exclusive
	h.Observe(99)
	for i := 0; i < h.NumBuckets(); i++ {
		c, lo, hi := h.Bucket(i)
		if c != 1 {
			t.Errorf("bucket %d [%v,%v) = %d, want 1", i, lo, hi, c)
		}
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 2 {
		t.Errorf("out of range = %d/%d, want 1/2", under, over)
	}
	if h.Count() != 13 {
		t.Errorf("count = %d, want 13", h.Count())
	}
}

func TestHistogramTopEdgeRounding(t *testing.T) {
	h := NewHistogram(0, 0.3, 3)
	h.Observe(math.Nextafter(0.3, 0)) // just under hi; rounding must not index out of range
	if h.Count() != 1 {
		t.Fatal("observation lost")
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram with hi<=lo should panic")
		}
	}()
	NewHistogram(5, 5, 3)
}
