package chain

import (
	"strings"
	"testing"
)

// A tx that verified once and is then changed in place has a new ID, so
// the signature cache misses and the stale signature is rejected by the
// same state and by AddBlock on the same chain.
func TestSigCacheRejectsTamperedTx(t *testing.T) {
	kp := testKey(t, 1)
	c := testChain(t, map[Address]uint64{kp.Fingerprint(): 100})
	tx := &Tx{To: Address{2}, Amount: 1, Nonce: 0, Kind: KindPayment}
	tx.Sign(kp)
	st := c.State()
	if err := st.CheckTx(tx); err != nil {
		t.Fatal(err)
	}
	tx.Amount = 90
	if err := st.CheckTx(tx); err == nil || !strings.Contains(err.Error(), "invalid signature") {
		t.Fatalf("tampered tx after a cached check: err = %v, want invalid signature", err)
	}
	b, err := c.NewBlock(c.HeadHash(), []*Tx{tx}, c.Config().TargetSpacing, Address{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err == nil || !strings.Contains(err.Error(), "invalid signature") {
		t.Fatalf("block with tampered tx: err = %v, want invalid signature", err)
	}
}

// A bad signature is rejected on every call and never enters the cache,
// whether checked by the state or by Mempool.Select.
func TestSigCacheNeverCachesFailures(t *testing.T) {
	kp := testKey(t, 1)
	c := testChain(t, map[Address]uint64{kp.Fingerprint(): 100})
	bad := &Tx{To: Address{2}, Amount: 1, Nonce: 0, Kind: KindPayment}
	bad.Sign(kp)
	bad.Sig[0] ^= 1
	st := c.State()
	for i := 0; i < 3; i++ {
		if err := st.CheckTx(bad); err == nil {
			t.Fatalf("call %d: bad signature accepted", i)
		}
	}
	pool := NewMempool()
	pool.Add(bad)
	if sel := pool.Select(st, 10); len(sel) != 0 || pool.Len() != 0 {
		t.Fatalf("Select kept or chose a bad-signature tx: selected %d, pool %d", len(sel), pool.Len())
	}
	if _, ok := st.verified[bad.ID()]; ok || len(st.verified) != 0 {
		t.Fatalf("cache holds %d entries after only failed checks", len(st.verified))
	}
}

// The cache belongs to one replica: every state of a chain shares it
// through Clone, two NewState values do not share one, and a block accepted
// by one chain leaves another chain's cache empty, so each replica verifies
// each tx itself before applying it.
func TestSigCacheScope(t *testing.T) {
	kp := testKey(t, 1)
	alloc := map[Address]uint64{kp.Fingerprint(): 100}
	a, b := testChain(t, alloc), testChain(t, alloc)
	tx := &Tx{To: Address{2}, Amount: 1, Nonce: 0, Kind: KindPayment}
	tx.Sign(kp)
	s1, s2 := NewState(alloc), NewState(alloc)
	if err := s1.CheckTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, ok := s1.verified[tx.ID()]; !ok {
		t.Fatal("a standalone state did not cache a successful check")
	}
	if n := len(s2.verified); n != 0 {
		t.Fatalf("a second NewState's cache holds %d entries after the first checked a tx", n)
	}
	if err := a.State().Clone().CheckTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.State().verified[tx.ID()]; !ok {
		t.Fatal("a check through a clone did not reach the chain's cache")
	}
	blk := extend(t, a, []*Tx{tx}, Address{3})
	if _, ok := a.State().verified[tx.ID()]; !ok {
		t.Fatal("the new head's state does not share the chain's cache")
	}
	if n := len(b.State().verified); n != 0 {
		t.Fatalf("second chain's cache holds %d entries after the first accepted a block", n)
	}
	if err := b.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.State().verified[tx.ID()]; !ok {
		t.Fatal("second chain applied a tx without verifying it")
	}
}

// A forged tx (the victim's address and key, the attacker's signature)
// inside a ground block is rejected by AddBlock, on the chain that built
// the block and on a fresh validator, even after the victim's genuine tx
// was cached: both a forgery that redirects the payment and one that
// keeps every signed field of the genuine tx, which only an ID that
// covers the signature tells apart.
func TestSigCacheAddBlockRejectsForgedTx(t *testing.T) {
	victim, attacker := testKey(t, 1), testKey(t, 2)
	alloc := map[Address]uint64{victim.Fingerprint(): 100}
	genuine := &Tx{To: Address{2}, Amount: 1, Nonce: 0, Kind: KindPayment}
	genuine.Sign(victim)
	for _, redirect := range []bool{true, false} {
		miner, validator := testChain(t, alloc), testChain(t, alloc)
		if err := miner.State().CheckTx(genuine); err != nil {
			t.Fatal(err)
		}
		forged := *genuine
		if redirect {
			forged.To = attacker.Fingerprint()
			forged.Amount = 99
		}
		sh := forged.SigHash()
		forged.Sig = attacker.Sign(sh[:])
		b, err := miner.NewBlock(miner.HeadHash(), []*Tx{&forged}, miner.Config().TargetSpacing, Address{3})
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*Chain{"miner": miner, "validator": validator} {
			if err := c.AddBlock(b); err == nil || !strings.Contains(err.Error(), "invalid signature") {
				t.Errorf("redirect=%v: %s accepted a block with a forged tx: err = %v", redirect, name, err)
			}
		}
	}
}
