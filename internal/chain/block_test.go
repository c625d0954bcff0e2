package chain

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/cryptoutil"
)

// referenceMeets is the big.Int definition of proof of work: the hash,
// read as a 256-bit big-endian integer, is at most 2²⁵⁶ / d.
func referenceMeets(hash cryptoutil.Hash, d uint64) bool {
	return new(big.Int).SetBytes(hash[:]).Cmp(workTarget(d)) <= 0
}

// hashOf returns v as a 32-byte big-endian hash; v must be in [0, 2²⁵⁶).
func hashOf(v *big.Int) cryptoutil.Hash {
	var h cryptoutil.Hash
	v.FillBytes(h[:])
	return h
}

// Property: the byte comparison against the 32-byte target agrees with
// the big.Int reference at the edges of the target and on random hashes.
func TestTargetMatchesBigIntReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	maxHash := new(big.Int).Sub(maxHashValue, big.NewInt(1))
	for _, d := range []uint64{0, 1, 2, 3, 4096, 1 << 32, 1 << 63, math.MaxUint64} {
		tgt := target(d)
		ref := workTarget(d)
		values := []*big.Int{big.NewInt(0), maxHash}
		if ref.Cmp(maxHash) <= 0 { // at d ≤ 1 the target is 2²⁵⁶, above every hash
			values = append(values, ref, new(big.Int).Add(ref, big.NewInt(1)))
		}
		for i := 0; i < 200; i++ {
			var h cryptoutil.Hash
			rng.Read(h[:])
			values = append(values, new(big.Int).SetBytes(h[:]))
			// Near the target, where random hashes at large d never land.
			near := new(big.Int).Add(ref, big.NewInt(rng.Int63n(1<<16)-1<<15))
			if near.Sign() >= 0 && near.Cmp(maxHash) <= 0 {
				values = append(values, near)
			}
		}
		for _, v := range values {
			h := hashOf(v)
			if got, want := meets(h, tgt), referenceMeets(h, d); got != want {
				t.Fatalf("d=%d hash=%x: met=%v, reference %v", d, v, got, want)
			}
		}
	}
}

// Property: Grind stops at the first nonce the reference accepts, and the
// header it leaves passes MeetsTarget.
func TestGrindMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		h := Header{Height: rng.Uint64(), Time: rng.Int63(), Difficulty: uint64(rng.Intn(64)), Nonce: uint64(rng.Intn(1000))}
		rng.Read(h.Prev[:])
		rng.Read(h.MerkleRoot[:])
		want := h
		for !referenceMeets(want.Hash(), want.Difficulty) {
			want.Nonce++
		}
		h.Grind()
		if h != want {
			t.Fatalf("header %d (d=%d): Grind stopped at nonce %d, reference at %d", i, h.Difficulty, h.Nonce, want.Nonce)
		}
		if !h.MeetsTarget() {
			t.Fatalf("header %d: ground header fails MeetsTarget", i)
		}
	}
}
