package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// newMinerNet builds n fully meshed miners with fresh chain replicas on an
// existing network; the shared helper for every chain-backed experiment.
func newMinerNet(nw *simnet.Network, n int, hashrate float64, cfg chain.Config) []*chain.Miner {
	miners := make([]*chain.Miner, n)
	ids := make([]simnet.NodeID, n)
	for i := 0; i < n; i++ {
		node := nw.AddNode()
		ids[i] = node.ID()
		addr := cryptoutil.SumHash([]byte{byte(i), 0x4D})
		miners[i] = chain.NewMiner(node, chain.NewChain(cfg), addr, hashrate)
	}
	for i, m := range miners {
		peers := make([]simnet.NodeID, 0, n-1)
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
	}
	return miners
}

// NamingSchemes is experiment X1: it registers nNames names under the
// centralized registrar and under the blockchain scheme at two block
// spacings, and reports latency and throughput. It quantifies §3.1:
// "blockchains essentially trade scalability and performance for global
// consensus and security."
func NamingSchemes(seed int64, nNames int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("X1: name registration, %d names per scheme (latency = submit→resolvable)", nNames),
		Headers: []string{"Scheme", "Mean Latency", "Max Latency", "Throughput (names/min)", "Censorable by One Party"},
	}

	// Centralized registrar baseline.
	{
		nw := simnet.New(seed)
		reg := naming.NewCentralizedRegistrar(nw.AddNode())
		client := naming.NewRegistrarClient(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()), reg.Node().ID(), time.Minute)
		var lat obs.Histogram
		start := nw.Now()
		var lastDone time.Duration
		var registerNext func(i int)
		registerNext = func(i int) {
			if i >= nNames {
				return
			}
			t0 := nw.Now()
			client.Register(fmt.Sprintf("name-%04d", i), chain.Address{byte(i)}, nil, func(ok bool) {
				if ok {
					lat.Observe(float64(nw.Now()-t0) / float64(time.Second))
					lastDone = nw.Now()
				}
				registerNext(i + 1)
			})
		}
		registerNext(0)
		nw.Run(time.Hour)
		tput := 0.0
		if elapsedMin := float64(lastDone-start) / float64(time.Minute); elapsedMin > 0 {
			tput = float64(lat.Count()) / elapsedMin
		}
		t.Add("centralized-registrar",
			fmt.Sprintf("%.2fs", lat.Mean()),
			fmt.Sprintf("%.2fs", lat.Quantile(1)),
			fmt.Sprintf("%.0f", tput),
			true)
	}

	// Blockchain naming at two block spacings.
	for _, spacing := range []time.Duration{5 * time.Second, 30 * time.Second} {
		mean, max, tput, n := blockchainNamingRun(seed+int64(spacing), nNames, spacing)
		t.Add(fmt.Sprintf("blockchain (block every %v)", spacing),
			fmt.Sprintf("%.0fs", mean),
			fmt.Sprintf("%.0fs", max),
			fmt.Sprintf("%.1f", tput),
			false)
		if n < nNames {
			t.Add(fmt.Sprintf("  (only %d/%d confirmed before deadline)", n, nNames), "", "", "", "")
		}
	}
	return t
}

// blockchainNamingRun registers names on a 3-miner chain and returns mean
// and max submit→resolvable latency (seconds), throughput (names/min), and
// how many names confirmed.
func blockchainNamingRun(seed int64, nNames int, spacing time.Duration) (mean, max, throughput float64, confirmed int) {
	nw := simnet.New(seed)
	key, err := cryptoutil.GenerateKeyPair(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		TargetSpacing:     spacing,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{key.Fingerprint(): 1 << 40},
	}
	// Aggregate hashrate targets the requested spacing.
	miners := newMinerNet(nw, 3, float64(cfg.InitialDifficulty)/spacing.Seconds()/3, cfg)
	for _, m := range miners {
		m.Start()
	}
	nameCfg := naming.DefaultConfig()
	client := naming.NewClient(key, nameCfg, rand.New(rand.NewSource(seed+1)), 0)

	name := func(i int) string { return fmt.Sprintf("bname-%04d", i) }
	submitAt := map[string]time.Duration{}
	resolvedAt := map[string]time.Duration{}
	preorderTx := map[string]cryptoutil.Hash{}

	// Phase 1: submit all preorders. Phase 2 (per name): once the preorder
	// is buried under one extra block (so the register necessarily lands at
	// age ≥ MinPreorderAge), submit the register. Poll the first miner's
	// chain replica.
	start := nw.Now()
	registered := map[string]bool{}
	for i := 0; i < nNames; i++ {
		tx, err := client.Preorder(name(i))
		if err != nil {
			panic(err)
		}
		submitAt[name(i)] = nw.Now()
		preorderTx[name(i)] = tx.ID()
		miners[0].SubmitTx(tx)
	}
	deadline := start + 2*time.Hour
	var poll func()
	poll = func() {
		c := miners[0].Chain()
		idx := naming.BuildIndex(c, nameCfg)
		allDone := true
		for i := 0; i < nNames; i++ {
			nm := name(i)
			if _, ok := resolvedAt[nm]; ok {
				continue
			}
			allDone = false
			if _, ok := idx.Resolve(nm); ok {
				resolvedAt[nm] = nw.Now()
				continue
			}
			if !registered[nm] {
				if _, blk := c.FindTx(preorderTx[nm]); blk != nil && c.Confirmations(blk.Hash()) >= 2 {
					registered[nm] = true
					miners[0].SubmitTx(client.Register(nm, []byte("zone")))
				}
			}
		}
		if !allDone && nw.Now() < deadline {
			nw.After(spacing/2, poll)
		}
	}
	nw.After(spacing, poll)
	nw.Run(deadline + time.Minute)
	for _, m := range miners {
		m.Stop()
	}

	var lat obs.Histogram
	var last time.Duration
	for nm, at := range resolvedAt {
		lat.Observe(float64(at-submitAt[nm]) / float64(time.Second))
		if at > last {
			last = at
		}
	}
	confirmed = lat.Count()
	if confirmed == 0 {
		return 0, 0, 0, 0
	}
	if elapsedMin := float64(last-start) / float64(time.Minute); elapsedMin > 0 {
		throughput = float64(confirmed) / elapsedMin
	}
	return lat.Mean(), lat.Quantile(1), throughput, confirmed
}
