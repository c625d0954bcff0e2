// Package chain implements a from-scratch proof-of-work blockchain: signed
// account-model transactions, Merkle-committed blocks, difficulty
// retargeting, heaviest-chain fork choice with reorg support, a fee-ordered
// mempool, and simulated miners that run over internal/simnet.
//
// The paper (§3.1, §3.3) treats blockchains as the enabling substrate for
// decentralized naming and storage incentives: "cryptographically auditable,
// append-only ledgers [that] allow users to publicly register a name …
// blockchains essentially trade scalability and performance for global
// consensus and security." This package provides exactly that ledger, plus
// the weaknesses the paper lists so they can be measured: the 51 % attack
// (Miner.Withhold + experiment X2), wasteful mining (WorkExpended), and the
// endless-ledger problem (Chain.TotalBytes).
//
// Proof-of-work here is literal — blocks carry a nonce whose header hash
// meets the difficulty target — but block *timing* is simulated: a miner
// with hashrate R at difficulty D finds blocks after Exp(D/R) of virtual
// time. Experiments should therefore use modest difficulties (2^10–2^20
// expected hashes) so that the literal grind stays cheap in wall-clock time
// while fork choice, retargeting, and attacks behave exactly as they would
// at production difficulty.
//
// Each replica verifies each transaction's signature once: a Chain's states
// share a cache of transaction IDs whose signature has passed, in the manner
// of Bitcoin Core's signature cache, and grinding patches the nonce into a
// fixed header encoding against a precomputed target, so it does not
// allocate per try.
package chain

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"

	"repro/internal/cryptoutil"
)

// Address identifies an account: the SHA-256 fingerprint of its ed25519
// public key.
type Address = cryptoutil.Hash

// Tx kinds. Payment moves value; the other kinds carry subsystem payloads
// (name operations, storage contracts) and are interpreted by the layers
// built on the chain. The chain itself validates signatures, nonces, and
// balances for every kind.
const (
	KindPayment  = "pay"
	KindNameOp   = "name"
	KindContract = "contract"
	KindAnchor   = "anchor" // arbitrary data commitment (e.g. zone file hash)
)

// Tx is one signed account-model transaction.
type Tx struct {
	From    Address
	FromPub ed25519.PublicKey
	To      Address
	Amount  uint64
	Fee     uint64
	Nonce   uint64 // must equal the sender's current account nonce
	Kind    string
	Payload []byte
	Sig     []byte
}

// encode serializes the transaction deterministically; withSig controls
// whether the signature is appended (the signing hash excludes it).
func (tx *Tx) encode(withSig bool) []byte {
	var buf []byte
	var scratch [8]byte
	put := func(b []byte) {
		binary.BigEndian.PutUint64(scratch[:], uint64(len(b)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, b...)
	}
	putU64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	buf = append(buf, tx.From[:]...)
	put(tx.FromPub)
	buf = append(buf, tx.To[:]...)
	putU64(tx.Amount)
	putU64(tx.Fee)
	putU64(tx.Nonce)
	put([]byte(tx.Kind))
	put(tx.Payload)
	if withSig {
		put(tx.Sig)
	}
	return buf
}

// SigHash returns the digest the sender signs.
func (tx *Tx) SigHash() cryptoutil.Hash { return cryptoutil.SumHash(tx.encode(false)) }

// ID returns the transaction identifier (hash over the full encoding,
// signature included).
func (tx *Tx) ID() cryptoutil.Hash { return cryptoutil.SumHash(tx.encode(true)) }

// WireSize returns the simulated wire size of the transaction in bytes.
func (tx *Tx) WireSize() int { return len(tx.encode(true)) }

// IsCoinbase reports whether this is a block-reward transaction (zero
// sender, no signature).
func (tx *Tx) IsCoinbase() bool { return tx.From.IsZero() }

// Sign signs the transaction with the key pair, filling From, FromPub, and
// Sig. The pair's fingerprint becomes the sender address.
func (tx *Tx) Sign(kp *cryptoutil.KeyPair) {
	tx.From = kp.Fingerprint()
	tx.FromPub = kp.Public
	h := tx.SigHash()
	tx.Sig = kp.Sign(h[:])
}

// CheckSig validates the signature and that FromPub matches From. Coinbase
// transactions have no signature and always pass.
func (tx *Tx) CheckSig() error {
	if tx.IsCoinbase() {
		return nil
	}
	if cryptoutil.PublicFingerprint(tx.FromPub) != tx.From {
		return fmt.Errorf("chain: tx %s: public key does not match sender address", tx.ID().Short())
	}
	h := tx.SigHash()
	if !cryptoutil.Verify(tx.FromPub, h[:], tx.Sig) {
		return fmt.Errorf("chain: tx %s: invalid signature", tx.ID().Short())
	}
	return nil
}

// NewCoinbase builds the block-reward transaction paying amount to miner.
// height is mixed into the payload so coinbase IDs are unique per block.
func NewCoinbase(miner Address, amount, height uint64) *Tx {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, height)
	return &Tx{To: miner, Amount: amount, Kind: KindPayment, Payload: payload}
}
