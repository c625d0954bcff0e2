package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/obs"
)

// ledger is a benchmark-owned miner loop through chain's public API, with
// no simnet: each step pays a block's worth of new transactions into the
// mempool (Wallet.Pay, Mempool.Add), selects a block from the standing
// backlog (Mempool.Select), grinds it (Chain.NewBlock) and adds it to the
// miner's chain and to every validating full node (Chain.AddBlock), with
// periodic light-client sync (HeaderChain.Sync) and state compaction
// (Chain.Compact). It is a closed loop: the next block starts after every
// validator has accepted the last. The backlog of one block between steps
// is what makes Select re-verify every pooled transaction.
const (
	ledgerSenders      = 4
	ledgerRecipients   = 512
	ledgerBlockTxs     = 8
	ledgerValidators   = 3
	ledgerBlocks       = 100
	ledgerDifficulty   = 4096
	ledgerSpacing      = 10 * time.Second
	ledgerSyncEvery    = 10
	ledgerCompactEvery = 25
	ledgerKeepStates   = 12
)

var ledgerWorkload = workloadSpec{
	name:  "ledger",
	setup: newLedger,
	why:   "closed-loop miner through chain's API, no simnet: Select re-verifies a standing mempool backlog, NewBlock grinds, validators AddBlock; loads chain and cryptoutil",
}

type ledgerWorld struct {
	rng        *rand.Rand
	wallets    []*chain.Wallet
	recipients []chain.Address
	minerAddr  chain.Address
	miner      *chain.Chain
	validators []*chain.Chain
	chains     []*chain.Chain // the miner's, then every validator's
	spv        *chain.HeaderChain
	pool       *chain.Mempool
	arrival    map[*chain.Tx]time.Duration

	mined, acceptedAll, rejected int
	selectCalls, addCalls        int
	poolLenSum                   int
	grindHashes                  int64
	lat                          []float64
}

func newLedger(seed int64, _ int, tr *tracer) world {
	rng := rand.New(rand.NewSource(seed))
	key := func() *cryptoutil.KeyPair {
		kp, err := cryptoutil.GenerateKeyPair(rng)
		if err != nil {
			panic(err) // a math/rand reader never fails
		}
		return kp
	}
	w := &ledgerWorld{rng: rng, pool: chain.NewMempool(), arrival: map[*chain.Tx]time.Duration{}}
	alloc := map[chain.Address]uint64{}
	for i := 0; i < ledgerSenders; i++ {
		wl := chain.NewWallet(key(), 0)
		w.wallets = append(w.wallets, wl)
		alloc[wl.Address()] = 1 << 40
	}
	for i := 0; i < ledgerRecipients; i++ {
		w.recipients = append(w.recipients, key().Fingerprint())
	}
	w.minerAddr = key().Fingerprint()
	cfg := chain.Config{InitialDifficulty: ledgerDifficulty, TargetSpacing: ledgerSpacing, MaxTxsPerBlock: ledgerBlockTxs, GenesisAlloc: alloc}
	w.miner = chain.NewChain(cfg)
	for i := 0; i < ledgerValidators; i++ {
		w.validators = append(w.validators, chain.NewChain(cfg))
	}
	w.chains = append([]*chain.Chain{w.miner}, w.validators...)
	w.spv = chain.NewHeaderChain(cfg)
	// The standing backlog: one block's worth pending before the first.
	w.arrive(tr, -ledgerSpacing)
	return w
}

// arrive pays one block's worth of transactions into the pool, arriving
// at seeded virtual times in (from, from+spacing].
func (w *ledgerWorld) arrive(tr *tracer, from time.Duration) {
	for i := 0; i < ledgerBlockTxs; i++ {
		wl := w.wallets[w.rng.Intn(len(w.wallets))]
		to := w.recipients[w.rng.Intn(len(w.recipients))]
		amount, fee := uint64(1+w.rng.Intn(1000)), uint64(1+w.rng.Intn(50))
		at := from + time.Duration(1+w.rng.Int63n(int64(ledgerSpacing)))
		sp := tr.begin("chain.pay")
		tx := wl.Pay(to, amount, fee)
		tr.end(sp)
		w.arrival[tx] = at
		w.pool.Add(tx)
	}
}

func (w *ledgerWorld) run(tr *tracer) {
	for i := 1; i <= ledgerBlocks; i++ {
		now := time.Duration(i) * ledgerSpacing
		w.arrive(tr, now-ledgerSpacing)

		w.selectCalls++
		w.poolLenSum += w.pool.Len()
		sp := tr.begin("chain.select")
		txs := w.pool.Select(w.miner.State(), ledgerBlockTxs)
		tr.end(sp)

		sp = tr.begin("chain.newblock")
		b, err := w.miner.NewBlock(w.miner.HeadHash(), txs, now, w.minerAddr)
		tr.end(sp)
		if err != nil {
			w.rejected++
			continue
		}
		w.mined++
		w.grindHashes += int64(b.Header.Nonce) + 1

		all := true
		for _, c := range w.chains {
			w.addCalls++
			sp = tr.begin("chain.addblock")
			err := c.AddBlock(b)
			tr.end(sp)
			if err != nil {
				w.rejected++
				all = false
			}
		}
		if all {
			w.acceptedAll++
		}
		w.pool.RemoveMined(b)
		for _, tx := range b.Txs[1:] {
			w.lat = append(w.lat, (now - w.arrival[tx]).Seconds())
			delete(w.arrival, tx)
		}
		if i%ledgerSyncEvery == 0 {
			w.sync(tr)
		}
		if i%ledgerCompactEvery == 0 {
			for _, c := range w.chains {
				c.Compact(ledgerKeepStates)
			}
		}
	}
	w.sync(tr)
}

func (w *ledgerWorld) sync(tr *tracer) {
	sp := tr.begin("chain.spv_sync")
	w.spv.Sync(w.miner)
	tr.end(sp)
}

func (w *ledgerWorld) result(*obs.Snapshot) outcome {
	out := outcome{attempted: ledgerBlocks, ok: w.acceptedAll, ops: int64(w.acceptedAll), lat: w.lat}
	reorgs := 0
	for _, c := range w.chains {
		reorgs += c.Reorgs()
	}
	out.counts = map[string]float64{
		"chain.blocks":            float64(w.acceptedAll),
		"chain.select.calls":      float64(w.selectCalls),
		"chain.select.pool_len":   ratio(float64(w.poolLenSum), float64(w.selectCalls)),
		"chain.grind.hashes":      float64(w.grindHashes),
		"chain.addblock.calls":    float64(w.addCalls),
		"chain.addblock.rejected": float64(w.rejected),
		"chain.reorgs":            float64(reorgs),
	}
	head := w.miner.HeadHash()
	out.digest = digestOf([]any{head.String(), w.grindHashes, w.lat})
	spvHead, spvHash := w.spv.Head()
	switch {
	case w.mined != ledgerBlocks || w.rejected != 0:
		out.err = fmt.Errorf("ledger: mined %d of %d blocks, %d rejections", w.mined, ledgerBlocks, w.rejected)
	case w.miner.Height() != ledgerBlocks:
		out.err = fmt.Errorf("ledger: miner height %d, want %d", w.miner.Height(), ledgerBlocks)
	case spvHash != head || spvHead.Height != w.miner.Height():
		out.err = fmt.Errorf("ledger: light client at height %d, miner at %d", spvHead.Height, w.miner.Height())
	}
	for i, v := range w.validators {
		if out.err == nil && (v.HeadHash() != head || v.Height() != w.miner.Height()) {
			out.err = fmt.Errorf("ledger: validator %d at height %d, miner at %d", i, v.Height(), w.miner.Height())
		}
	}
	return out
}
