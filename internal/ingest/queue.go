package ingest

import (
	"sync"

	"mvcom/internal/chain"
)

// txQueue is the admission queue between the front ends and the epoch
// goroutine: a mutex-guarded FIFO double buffer. Submitters append under
// the lock; a flush swaps the filled buffer for the spare the epoch
// goroutine hands back, so neither side orders or copies transactions
// after admission. Every flush takes everything queued, so admission
// order is the only order the queue needs to keep.
type txQueue struct {
	mu  sync.Mutex
	buf []chain.Transaction
}

// tryAdd appends txs unless the queue would then hold more than max
// transactions. The check and the append are one step under the lock,
// so concurrent submitters never overshoot the watermark. It returns the
// queue length after the call and whether txs were admitted.
func (q *txQueue) tryAdd(txs []chain.Transaction, max int) (n int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf)+len(txs) > max {
		return len(q.buf), false
	}
	q.buf = append(q.buf, txs...)
	return len(q.buf), true
}

// len returns the number of queued transactions.
func (q *txQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// swap returns the queued transactions in admission order and keeps
// spare, emptied, as the buffer the next submissions fill. The caller
// owns the returned slice until it hands it back as a spare.
func (q *txQueue) swap(spare []chain.Transaction) []chain.Transaction {
	q.mu.Lock()
	defer q.mu.Unlock()
	full := q.buf
	q.buf = spare[:0]
	return full
}
