package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/storage/chunker"
	"repro/internal/workload"
)

// store drives storage clients through a closed loop: each client uploads
// its next object (content-defined chunks with replication, or a
// Reed-Solomon shard set), downloads it back, checks the bytes and
// releases it, and only then starts the next. Objects are edits of one
// shared corpus, so content-addressed chunks deduplicate across clients,
// and provider disks are small enough that garbage collection reclaims
// released chunks throughout. Messages are few and large.
const (
	storeClients      = 8
	storeProviders    = 8
	storeObjects      = 64 // per client
	storeDocBytes     = 48 << 10
	storeEdits        = 4
	storeAvgChunk     = 4 << 10
	storeReplicas     = 2
	storeDataShards   = 4
	storeParityShards = 2
	storeTimeout      = 10 * time.Second
)

var storeWorkload = workloadSpec{
	name:  "store",
	setup: newStore,
	why:   "closed-loop CDC and erasure-coded uploads then verified downloads against tiered, garbage-collected providers; loads chunker, erasure, sha256, localstore with few large messages",
}

// storeOp is one transfer's fate, written by its own callback.
type storeOp struct {
	Upload bool
	OK     bool
	Lat    float64
}

type storeWorld struct {
	nw      *simnet.Network
	provs   []*storage.Provider
	clients []*storage.Client
	docs    [][][]byte // per client, per object
	ck      *chunker.Chunker
	pool    []storage.ProviderRef
	ops     [][]storeOp // per client, in completion order
	chunked int64
	moved   int64 // object bytes uploaded plus downloaded
	// delivered counts messages delivered in the timed phase.
	delivered int64

	uploads, downloads, upFailed, downFailed int
}

func newStore(seed int64, _ int, _ *tracer) world {
	nw := simnet.New(seed)
	nw.EnableQueueMetrics()
	prof := simnet.LinkProfile{Latency: 20 * time.Millisecond, Jitter: 5 * time.Millisecond, UplinkBps: 20e6, DownlinkBps: 50e6}
	nw.SetDefaultProfile(prof)
	w := &storeWorld{nw: nw, ops: make([][]storeOp, storeClients)}
	// Each provider's disk holds a few clients' live objects; the rest of
	// the volume must be reclaimed from released chunks.
	capacity := int64(storeClients*storeDocBytes*storeReplicas/storeProviders) * 4
	for i := 0; i < storeProviders; i++ {
		p := storage.NewProviderWith(nw.AddNode(), storage.ProviderConfig{
			Capacity: capacity, MemCapacity: capacity / 4, GC: true, Metrics: true,
		})
		w.provs = append(w.provs, p)
		w.pool = append(w.pool, p.Ref())
	}
	for i := 0; i < storeClients; i++ {
		w.clients = append(w.clients, storage.NewClientWith(nw.AddNode(), storeTimeout, resil.Defaults()))
	}
	ck, err := chunker.New(chunker.Defaults(storeAvgChunk))
	if err != nil {
		panic(err) // the default configuration is valid
	}
	w.ck = ck
	rng := workload.Rand(seed, 0x5709E)
	corpus := make([]byte, storeDocBytes)
	rng.Read(corpus)
	w.docs = make([][][]byte, storeClients)
	for c := range w.docs {
		for j := 0; j < storeObjects; j++ {
			w.docs[c] = append(w.docs[c], editedCopy(rng, corpus))
		}
	}
	return w
}

// editedCopy returns the corpus with a few seeded insertions, so copies
// share most of their content-defined chunks.
func editedCopy(rng *rand.Rand, corpus []byte) []byte {
	doc := append([]byte{}, corpus...)
	for e := 0; e < storeEdits; e++ {
		ins := make([]byte, 8+rng.Intn(57))
		rng.Read(ins)
		at := rng.Intn(len(doc) + 1)
		doc = append(doc[:at], append(ins, doc[at:]...)...)
	}
	return doc
}

func (w *storeWorld) run(tr *tracer) {
	for c := range w.clients {
		w.next(tr, c, 0)
	}
	sp := tr.begin("simnet.run")
	w.nw.RunAll()
	tr.end(sp)
	w.delivered = w.nw.Trace().Delivered
}

// next runs client c's object j: upload, download, verify, release, then
// object j+1. Even objects go up as replicated CDC chunks, odd ones as an
// erasure-coded shard set.
func (w *storeWorld) next(tr *tracer, c, j int) {
	if j == storeObjects {
		return
	}
	client, doc := w.clients[c], w.docs[c][j]
	start := w.nw.Now()
	uploaded := func(m *storage.Manifest, pl *storage.Placement, err error) {
		up := w.nw.Now()
		w.ops[c] = append(w.ops[c], storeOp{Upload: true, OK: err == nil, Lat: (up - start).Seconds()})
		if err != nil {
			w.upFailed++
			w.next(tr, c, j+1)
			return
		}
		w.moved += int64(len(doc))
		w.downloads++
		sp := tr.begin("storage.download")
		client.Download(m, pl, func(data []byte, err error) {
			ok := err == nil && bytes.Equal(data, doc)
			w.ops[c] = append(w.ops[c], storeOp{OK: ok, Lat: (w.nw.Now() - up).Seconds()})
			if ok {
				w.moved += int64(len(data))
			} else {
				w.downFailed++
			}
			client.ReleaseObject(m, pl, func(int) {})
			w.next(tr, c, j+1)
		})
		tr.end(sp)
	}
	w.uploads++
	sp := tr.begin("storage.upload")
	if j%2 == 0 {
		w.chunked += int64(len(doc))
		client.UploadCDC(doc, w.ck, w.pool, storeReplicas, uploaded)
	} else {
		client.UploadErasure(doc, storeDataShards, storeParityShards, w.pool, uploaded)
	}
	tr.end(sp)
}

func (w *storeWorld) result(snap *obs.Snapshot) outcome {
	var out outcome
	for _, ops := range w.ops {
		for _, op := range ops {
			out.attempted++
			if op.OK {
				out.ok++
			}
			out.lat = append(out.lat, op.Lat)
		}
	}
	out.ops = int64(out.attempted)
	if want := storeClients * storeObjects * 2; w.upFailed != 0 || w.downFailed != 0 || out.attempted != want {
		out.err = fmt.Errorf("store: %d of %d transfers ran; %d uploads and %d downloads failed or differed from the upload",
			out.attempted, want, w.upFailed, w.downFailed)
	}
	var logical, physical, mem, disk, reclaimed int64
	for _, p := range w.provs {
		st := p.Store()
		logical += st.LogicalBytes()
		physical += st.PhysicalBytes()
		m, d := st.TierHits()
		mem += m
		disk += d
		reclaimed += st.GCReclaimedBytes()
	}
	out.counts = simnetCounts(snap, w.delivered)
	for k, v := range resilCounts(snap) {
		out.counts[k] = v
	}
	out.counts["storage.upload.calls"] = float64(w.uploads)
	out.counts["storage.download.calls"] = float64(w.downloads)
	out.counts["storage.upload.failed"] = float64(w.upFailed)
	out.counts["storage.download.failed"] = float64(w.downFailed)
	out.counts["storage.localstore.dedup_ratio"] = ratio(float64(logical), float64(physical))
	out.counts["storage.localstore.hit_ratio"] = ratio(float64(mem), float64(mem+disk))
	out.counts["storage.localstore.gc_reclaimed_mb"] = float64(reclaimed) / 1e6
	out.counts["chunker.bytes"] = float64(w.chunked)
	out.counts["storage.moved_mb"] = float64(w.moved) / 1e6
	out.digest = digestOf(w.ops)
	return out
}
