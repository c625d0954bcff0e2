package chain

import (
	"fmt"

	"repro/internal/cryptoutil"
)

// State is the account state at some block: balances and per-account
// transaction nonces. States are immutable once attached to a block; Clone
// before applying new transactions. A State is not safe for concurrent use:
// checking a transaction may record its signature in the replica's cache.
type State struct {
	Balances map[Address]uint64
	Nonces   map[Address]uint64
	// verified holds the IDs of transactions whose signature passed
	// CheckSig on this replica. A signature's validity is a pure function
	// of the transaction bytes, and an ID is recomputed from the current
	// bytes, so a hit needs no second check. NewState makes the set and
	// Clone shares it, so every state of a chain shares one cache and two
	// chains never share one. Like the chain's block bodies, it grows with
	// every valid tx the replica sees.
	verified map[cryptoutil.Hash]struct{}
}

// NewState creates an empty state, optionally seeded with an initial
// allocation.
func NewState(alloc map[Address]uint64) *State {
	s := &State{
		Balances: map[Address]uint64{},
		Nonces:   map[Address]uint64{},
		verified: map[cryptoutil.Hash]struct{}{},
	}
	for addr, amt := range alloc {
		s.Balances[addr] = amt
	}
	return s
}

// Clone deep-copies the balances and nonces; the copy shares the
// signature cache.
func (s *State) Clone() *State {
	out := &State{
		Balances: make(map[Address]uint64, len(s.Balances)),
		Nonces:   make(map[Address]uint64, len(s.Nonces)),
		verified: s.verified,
	}
	for k, v := range s.Balances {
		out.Balances[k] = v
	}
	for k, v := range s.Nonces {
		out.Nonces[k] = v
	}
	return out
}

// Balance returns the balance of addr (zero for unknown accounts).
func (s *State) Balance(addr Address) uint64 { return s.Balances[addr] }

// Nonce returns the next expected nonce for addr.
func (s *State) Nonce(addr Address) uint64 { return s.Nonces[addr] }

// CheckTx validates a non-coinbase transaction against the state without
// mutating its balances or nonces.
func (s *State) CheckTx(tx *Tx) error {
	if err := s.checkSig(tx); err != nil {
		return err
	}
	if tx.IsCoinbase() {
		return fmt.Errorf("chain: coinbase tx %s outside block position 0", tx.ID().Short())
	}
	if got, want := tx.Nonce, s.Nonces[tx.From]; got != want {
		return fmt.Errorf("chain: tx %s: nonce %d, want %d", tx.ID().Short(), got, want)
	}
	need := tx.Amount + tx.Fee
	if need < tx.Amount { // overflow
		return fmt.Errorf("chain: tx %s: amount+fee overflows", tx.ID().Short())
	}
	if bal := s.Balances[tx.From]; bal < need {
		return fmt.Errorf("chain: tx %s: balance %d < %d", tx.ID().Short(), bal, need)
	}
	return nil
}

// checkSig is tx.CheckSig behind the replica's signature cache: only a
// successful check is recorded.
func (s *State) checkSig(tx *Tx) error {
	id := tx.ID()
	if _, ok := s.verified[id]; ok {
		return nil
	}
	if err := tx.CheckSig(); err != nil {
		return err
	}
	s.verified[id] = struct{}{}
	return nil
}

// ApplyTx validates and applies one non-coinbase transaction.
func (s *State) ApplyTx(tx *Tx) error {
	if err := s.CheckTx(tx); err != nil {
		return err
	}
	s.Balances[tx.From] -= tx.Amount + tx.Fee
	s.Balances[tx.To] += tx.Amount
	s.Nonces[tx.From]++
	return nil
}

// applyCoinbase credits the block reward; amount correctness is checked by
// the chain against subsidy+fees.
func (s *State) applyCoinbase(tx *Tx) {
	s.Balances[tx.To] += tx.Amount
}
