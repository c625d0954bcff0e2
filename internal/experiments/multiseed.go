package experiments

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Multi-seed aggregation. Every stochastic experiment in this package has a
// numeric core — a function from one seed to a Matrix of float64 cells —
// and a single-seed Table renderer built on it. AggregateSeeds fans a batch
// of seeds over simnet.Trials workers and reduces the resulting matrices
// cell-wise, so any experiment can also report mean/p50/p95 across seeds
// instead of a single draw. Deterministic experiments (the paper tables,
// X6, X12, X13, the metadata-exposure and sensitivity tables) have no
// randomness to average over and stay single-run.

// Matrix is the numeric result of one experiment run under one seed: a
// labelled grid of float64 cells, row-major.
type Matrix struct {
	Rows []string
	Cols []string
	Vals [][]float64
}

// NewMatrix allocates a zeroed matrix with the given labels.
func NewMatrix(rows, cols []string) Matrix {
	vals := make([][]float64, len(rows))
	for i := range vals {
		vals[i] = make([]float64, len(cols))
	}
	return Matrix{Rows: rows, Cols: cols, Vals: vals}
}

// Agg holds the cell-wise aggregates of one experiment across seeds.
type Agg struct {
	Rows, Cols     []string
	Seeds          int
	Mean, P50, P95 [][]float64
}

// AggregateSeeds runs the experiment core once per seed (in parallel on
// `workers` simnet.Trials workers; 0 means GOMAXPROCS) and reduces the
// matrices cell-wise. All matrices must share the core's fixed shape.
func AggregateSeeds(seeds []int64, workers int, run func(seed int64) Matrix) Agg {
	ms := simnet.Trials(seeds, workers, run)
	if len(ms) == 0 {
		return Agg{}
	}
	rows, cols := ms[0].Rows, ms[0].Cols
	a := Agg{Rows: rows, Cols: cols, Seeds: len(ms)}
	alloc := func() [][]float64 {
		g := make([][]float64, len(rows))
		for i := range g {
			g[i] = make([]float64, len(cols))
		}
		return g
	}
	a.Mean, a.P50, a.P95 = alloc(), alloc(), alloc()
	for r := range rows {
		for c := range cols {
			var s obs.Histogram
			for _, m := range ms {
				s.Observe(m.Vals[r][c])
			}
			a.Mean[r][c] = s.Mean()
			a.P50[r][c] = s.Quantile(0.5)
			a.P95[r][c] = s.Quantile(0.95)
		}
	}
	return a
}

// Table renders the aggregate: each cell shows "mean [p50 p95]" over the
// seed batch. colFormats holds one fmt verb per column (e.g. "%.2f",
// "%.0f%%"); passing a single format applies it to every column.
func (a Agg) Table(title, rowHeader string, colFormats ...string) *Table {
	format := func(c int) string {
		if len(colFormats) == 1 {
			return colFormats[0]
		}
		return colFormats[c]
	}
	t := &Table{
		Title:   fmt.Sprintf("%s — mean [p50 p95] over %d seeds", title, a.Seeds),
		Headers: append([]string{rowHeader}, a.Cols...),
	}
	for r, name := range a.Rows {
		row := []any{name}
		for c := range a.Cols {
			f := format(c)
			row = append(row, fmt.Sprintf(f+" ["+f+" "+f+"]", a.Mean[r][c], a.P50[r][c], a.P95[r][c]))
		}
		t.Add(row...)
	}
	return t
}

// strideSeeds reproduces the historical per-trial seed derivation
// (base + i*stride) used by the single-seed tables, so converting their
// inner loops to simnet.Trials preserves every published number.
func strideSeeds(base, stride int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)*stride
	}
	return seeds
}
