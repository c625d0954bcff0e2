package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestPackageLayersCoverInternal fails when a package under internal/ has
// no layer, so new code cannot fall silently into "other" in the
// profile attribution; it also rejects entries for packages that are gone.
func TestPackageLayersCoverInternal(t *testing.T) {
	root := filepath.Join("..", "internal")
	found := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		found[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no packages found under internal/")
	}
	for pkg := range found {
		if _, ok := packageLayers[pkg]; !ok {
			t.Errorf("package internal/%s has no entry in packageLayers", pkg)
		}
	}
	for pkg := range packageLayers {
		if !found[pkg] {
			t.Errorf("packageLayers lists internal/%s, which has no Go files", pkg)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct{ fn, file, want string }{
		{"repro/internal/simnet.(*engine).less", "/x/internal/simnet/scheduler.go", "simnet.heap"},
		{"repro/internal/simnet.(*shard).down", "/x/internal/simnet/shard.go", "simnet.heap"},
		{"repro/internal/simnet.(*shard).drainInboxes", "/x/internal/simnet/shard.go", "simnet.shard"},
		{"repro/internal/simnet.(*Network).startWorkers.func1", "/x/internal/simnet/shard.go", "simnet.shard"},
		{"repro/internal/simnet.shardDeliver", "/x/internal/simnet/shard.go", "simnet.link"},
		{"repro/internal/simnet.(*RPCNode).onMessage", "/x/internal/simnet/rpc.go", "simnet.rpc"},
		{"repro/internal/simnet.(*Network).Send", "/x/internal/simnet/simnet.go", "simnet.link"},
		{"repro/internal/simnet.(*Network).Run", "/x/internal/simnet/simnet.go", "simnet"},
		{"repro/internal/storage/chunker.(*Chunker).Split", "/x/chunker.go", "chunker"},
		{"repro/internal/simnet/fault.(*Plan).ApplyAt.func1", "/x/fault.go", "fault"},
		{"repro/internal/chain.(*Header).Grind", "/x/block.go", "chain"},
		{"main.(*ledgerWorld).run", "/x/ledger.go", layerBench},
		{"crypto/ed25519.Verify", "/go/ed25519.go", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// spin burns CPU in a frame of this package for the profile test.
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestLayerCPUFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	cpu := map[string]float64{}
	if err := layerCPU(buf.Bytes(), cpu); err != nil {
		t.Fatal(err)
	}
	if cpu[layerBench] < 0.1 {
		t.Errorf("bench layer got %.3fs of a 0.3s spin; attribution %v", cpu[layerBench], cpu)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSpanAggregate checks busy and self times on a hand-built tree:
//
//	root [0,100)
//	├── a [10,40)
//	└── b [50,90)
//	    └── c [60,70)
func TestSpanAggregate(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 50, end: 90},
		{name: "c", parent: 2, start: 60, end: 70},
	}
	got := aggregate(spans)
	want := map[string]spanStat{
		"root": {calls: 1, busy: 100, self: 30},
		"a":    {calls: 1, busy: 30, self: 30},
		"b":    {calls: 1, busy: 40, self: 30},
		"c":    {calls: 1, busy: 10, self: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate = %v, want %v", got, want)
	}
	var self time.Duration
	for _, st := range got {
		self += st.self
	}
	if self != got["root"].busy {
		t.Errorf("self times sum to %v, root busy is %v", self, got["root"].busy)
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer(true)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].parent != 0 || tr.spans[0].parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	off := newTracer(false)
	off.end(off.begin("x"))
	var none *tracer
	none.end(none.begin("x"))
	if len(off.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(off.spans))
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json at the repository root
// identical to what the tables generate; regenerate it with
// `go run . --manifest ../BENCHMARK.json` in this directory.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, manifestJSON()) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with go run . --manifest ../BENCHMARK.json")
	}
}

// TestWorkloadsReplay runs one round of every workload twice on the same
// sub-seed, untraced at two workers and traced at one: each passes its
// correctness checks and replays exactly. Under -race it also checks that
// the swarm workload's result slots are race-free on parallel shards.
func TestWorkloadsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runRound(w, subSeed(7, 0), 2, false)
			b := runRound(w, subSeed(7, 0), 1, true)
			if a.out.err != nil {
				t.Error(a.out.err)
			}
			if err := b.check(&a); err != nil {
				t.Errorf("replay: %v", err)
			}
			if a.out.attempted == 0 || len(a.out.lat) == 0 {
				t.Errorf("attempted %d, %d latency samples", a.out.attempted, len(a.out.lat))
			}
		})
	}
}
