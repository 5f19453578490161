// Package txpool implements the transaction mempool that grounds the
// paper's freshness metric: transactions arrive over (virtual) time, wait
// in the pool, and are drained into committee shards at each epoch. The
// cumulative age the MVCom objective penalizes is exactly the waiting
// time accumulated here between a transaction's arrival and the epoch
// deadline at which its shard is permitted.
package txpool

import (
	"container/heap"
	"errors"
	"time"

	"mvcom/internal/chain"
)

// Errors returned by the pool.
var (
	ErrEmpty = errors.New("txpool: pool is empty")
)

// item orders transactions by arrival time (FIFO per timestamp, sequence
// breaking ties).
type item struct {
	tx  chain.Transaction
	seq uint64
}

type txHeap []item

func (h txHeap) Len() int { return len(h) }
func (h txHeap) Less(i, j int) bool {
	if h[i].tx.Created != h[j].tx.Created {
		return h[i].tx.Created < h[j].tx.Created
	}
	return h[i].seq < h[j].seq
}
func (h txHeap) Swap(i, j int)           { h[i], h[j] = h[j], h[i] }
func (h *txHeap) Push(x any)             { *h = append(*h, x.(item)) }
func (h *txHeap) Pop() any               { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h txHeap) peek() chain.Transaction { return h[0].tx }

// Pool is a virtual-time mempool. It is not safe for concurrent use; the
// discrete-event simulation drives it from one goroutine.
type Pool struct {
	heap    txHeap
	seq     uint64
	added   int
	drained int
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// Len returns the number of waiting transactions.
func (p *Pool) Len() int { return len(p.heap) }

// Added returns how many transactions ever entered the pool.
func (p *Pool) Added() int { return p.added }

// Drained returns how many transactions have been drained.
func (p *Pool) Drained() int { return p.drained }

// Add inserts a transaction keyed by its Created timestamp.
func (p *Pool) Add(tx chain.Transaction) {
	heap.Push(&p.heap, item{tx: tx, seq: p.seq})
	p.seq++
	p.added++
}

// AddBatch inserts many transactions.
func (p *Pool) AddBatch(txs []chain.Transaction) {
	for _, tx := range txs {
		p.Add(tx)
	}
}

// Oldest returns the arrival time of the oldest waiting transaction.
func (p *Pool) Oldest() (time.Duration, error) {
	if len(p.heap) == 0 {
		return 0, ErrEmpty
	}
	return p.heap.peek().Created, nil
}

// DrainArrived removes and returns every transaction that arrived at or
// before now, oldest first, up to max entries (max <= 0 means no limit).
func (p *Pool) DrainArrived(now time.Duration, max int) []chain.Transaction {
	var out []chain.Transaction
	for len(p.heap) > 0 && p.heap.peek().Created <= now {
		if max > 0 && len(out) >= max {
			break
		}
		it := heap.Pop(&p.heap).(item)
		out = append(out, it.tx)
	}
	p.drained += len(out)
	return out
}

// CumulativeAge sums now − Created over the waiting transactions that
// have already arrived — the pool-level counterpart of the paper's Π
// term. Transactions with future timestamps contribute nothing.
func (p *Pool) CumulativeAge(now time.Duration) time.Duration {
	var total time.Duration
	for _, it := range p.heap {
		if it.tx.Created <= now {
			total += now - it.tx.Created
		}
	}
	return total
}

// AgeStats summarizes waiting ages at an instant.
type AgeStats struct {
	Waiting int
	Total   time.Duration
	Mean    time.Duration
	Max     time.Duration
}

// Ages computes waiting-age statistics over the arrived transactions.
func (p *Pool) Ages(now time.Duration) AgeStats {
	var st AgeStats
	for _, it := range p.heap {
		if it.tx.Created > now {
			continue
		}
		age := now - it.tx.Created
		st.Waiting++
		st.Total += age
		if age > st.Max {
			st.Max = age
		}
	}
	if st.Waiting > 0 {
		st.Mean = st.Total / time.Duration(st.Waiting)
	}
	return st
}
