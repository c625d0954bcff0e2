package chain

import (
	"bytes"
	"encoding/binary"
	"math/big"

	"repro/internal/cryptoutil"
)

// Header is the proof-of-work-committed part of a block.
type Header struct {
	Prev       cryptoutil.Hash
	MerkleRoot cryptoutil.Hash
	Height     uint64
	// Time is the block's virtual timestamp in nanoseconds of simulation
	// time (simnet durations cast to int64).
	Time int64
	// Difficulty is the expected number of hash evaluations to find a
	// valid nonce; the target is 2²⁵⁶ / Difficulty.
	Difficulty uint64
	Nonce      uint64
}

// headerSize is the length of a header's encoding; the nonce is its last
// eight bytes.
const headerSize = 32 + 32 + 8*4

func (h *Header) encode() [headerSize]byte {
	var buf [headerSize]byte
	copy(buf[0:32], h.Prev[:])
	copy(buf[32:64], h.MerkleRoot[:])
	binary.BigEndian.PutUint64(buf[64:], h.Height)
	binary.BigEndian.PutUint64(buf[72:], uint64(h.Time))
	binary.BigEndian.PutUint64(buf[80:], h.Difficulty)
	binary.BigEndian.PutUint64(buf[headerSize-8:], h.Nonce)
	return buf
}

// Hash returns the block identifier: the SHA-256 of the header encoding.
func (h *Header) Hash() cryptoutil.Hash {
	buf := h.encode()
	return cryptoutil.SumHash(buf[:])
}

// Block is a header plus its transactions; the first transaction must be
// the coinbase.
type Block struct {
	Header Header
	Txs    []*Tx
}

// Hash returns the block's identifier.
func (b *Block) Hash() cryptoutil.Hash { return b.Header.Hash() }

// WireSize returns the simulated size of the block in bytes: header plus
// all transactions. Chain.TotalBytes sums this to track the paper's
// "endless ledger" growth.
func (b *Block) WireSize() int {
	size := headerSize
	for _, tx := range b.Txs {
		size += tx.WireSize()
	}
	return size
}

// txMerkleRoot computes the Merkle root over the block's transaction IDs.
func txMerkleRoot(txs []*Tx) cryptoutil.Hash {
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		id := tx.ID()
		leaves[i] = id[:]
	}
	return cryptoutil.MerkleRoot(leaves)
}

var maxHashValue = new(big.Int).Lsh(big.NewInt(1), 256)

// workTarget returns the highest hash value that satisfies difficulty d.
func workTarget(d uint64) *big.Int {
	if d == 0 {
		d = 1
	}
	return new(big.Int).Div(maxHashValue, new(big.Int).SetUint64(d))
}

// target returns difficulty d's proof-of-work threshold as a big-endian
// 32-byte value: workTarget(d), or 2²⁵⁶−1 for d ≤ 1, whose workTarget
// 2²⁵⁶ does not fit; every hash meets either bound.
func target(d uint64) (t [32]byte) {
	if d <= 1 {
		for i := range t {
			t[i] = 0xFF
		}
		return t
	}
	workTarget(d).FillBytes(t[:])
	return t
}

// meets reports whether hash, read as a big-endian integer, is at most
// the threshold t.
func meets(hash cryptoutil.Hash, t [32]byte) bool {
	return bytes.Compare(hash[:], t[:]) <= 0
}

// MeetsTarget reports whether the header's hash satisfies its difficulty.
func (h *Header) MeetsTarget() bool {
	return meets(h.Hash(), target(h.Difficulty))
}

// Grind searches nonces (starting from the current one) until the header
// meets its target, mutating the header in place. With the modest
// difficulties simulations use this is a few thousand hash evaluations;
// the target and the encoding are built once, and each try only rewrites
// the nonce bytes and allocates nothing.
func (h *Header) Grind() {
	t := target(h.Difficulty)
	buf := h.encode()
	for {
		binary.BigEndian.PutUint64(buf[headerSize-8:], h.Nonce)
		if meets(cryptoutil.SumHash(buf[:]), t) {
			return
		}
		h.Nonce++
	}
}

// Work returns the expected-hash contribution of a block at difficulty d,
// used for heaviest-chain fork choice.
func Work(d uint64) *big.Int { return new(big.Int).SetUint64(d) }
