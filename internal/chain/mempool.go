package chain

import (
	"sort"

	"repro/internal/cryptoutil"
)

// Mempool holds transactions waiting for inclusion, ordered for block
// assembly by fee (descending) with per-sender nonce order preserved.
type Mempool struct {
	txs map[cryptoutil.Hash]*Tx
}

// NewMempool creates an empty mempool.
func NewMempool() *Mempool {
	return &Mempool{txs: map[cryptoutil.Hash]*Tx{}}
}

// Add inserts a transaction; duplicates are ignored. It reports whether the
// transaction was new.
func (m *Mempool) Add(tx *Tx) bool {
	id := tx.ID()
	if _, ok := m.txs[id]; ok {
		return false
	}
	m.txs[id] = tx
	return true
}

// Has reports whether the transaction is pending.
func (m *Mempool) Has(id cryptoutil.Hash) bool { _, ok := m.txs[id]; return ok }

// Len returns the number of pending transactions.
func (m *Mempool) Len() int { return len(m.txs) }

// RemoveMined deletes every transaction included in block b.
func (m *Mempool) RemoveMined(b *Block) {
	for _, tx := range b.Txs {
		delete(m.txs, tx.ID())
	}
}

// Select returns up to max transactions that apply cleanly, in order,
// against state st: highest fee first, respecting per-sender nonce
// sequences. Transactions that cannot currently apply (nonce gap,
// insufficient balance, a nonce st has already spent) are left in the pool;
// permanently invalid transactions (bad signature) are evicted. Signatures
// are checked through st's signature cache, so each pooled transaction is
// verified at most once.
func (m *Mempool) Select(st *State, max int) []*Tx {
	work := st.Clone()
	// Group by sender, sorted by nonce, so sequences apply in order.
	bySender := map[Address][]*Tx{}
	for _, tx := range m.txs {
		if err := work.checkSig(tx); err != nil {
			delete(m.txs, tx.ID())
			continue
		}
		bySender[tx.From] = append(bySender[tx.From], tx)
	}
	for _, seq := range bySender {
		sort.Slice(seq, func(i, j int) bool {
			// Same-nonce transactions conflict: prefer the higher fee, then
			// break ties by ID so block assembly is deterministic even
			// though the pool map iterates in random order.
			if seq[i].Nonce != seq[j].Nonce {
				return seq[i].Nonce < seq[j].Nonce
			}
			if seq[i].Fee != seq[j].Fee {
				return seq[i].Fee > seq[j].Fee
			}
			return lessHash(seq[i].ID(), seq[j].ID())
		})
	}
	// Candidate heads: the next applicable tx per sender. Pick the highest
	// fee among heads, apply, advance that sender. Deterministic tie-break
	// on tx ID keeps simulations reproducible.
	var out []*Tx
	idx := map[Address]int{}
	for len(out) < max {
		var best *Tx
		var bestID cryptoutil.Hash
		for from, seq := range bySender {
			// Step past nonces already spent: the losing side of a
			// same-nonce conflict, or a tx whose slot a conflicting tx
			// took on chain. They stay pooled, since a reorg can revive
			// them, but must not block the sender's next nonce.
			i := idx[from]
			for i < len(seq) && seq[i].Nonce < work.Nonce(from) {
				i++
			}
			idx[from] = i
			if i >= len(seq) {
				continue
			}
			tx := seq[i]
			if work.CheckTx(tx) != nil {
				continue
			}
			id := tx.ID()
			if best == nil || tx.Fee > best.Fee || (tx.Fee == best.Fee && lessHash(id, bestID)) {
				best, bestID = tx, id
			}
		}
		if best == nil {
			break
		}
		if err := work.ApplyTx(best); err != nil {
			break // should not happen: CheckTx passed above
		}
		out = append(out, best)
		idx[best.From]++
	}
	return out
}

func lessHash(a, b cryptoutil.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
