package ingest

import (
	"sync"
	"testing"

	"mvcom/internal/chain"
)

// TestQueueConcurrentAddSwap is the -race test for the queue's
// concurrency contract: many submitters append while the epoch
// goroutine swaps buffers. Every admitted transaction comes out exactly
// once, and each submitter's transactions come out in the order it
// added them.
func TestQueueConcurrentAddSwap(t *testing.T) {
	var q txQueue
	const producers = 8
	const perProducer = 500
	const total = producers * perProducer

	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				tx := chain.Transaction{From: uint64(g), ID: uint64(i)}
				if _, ok := q.tryAdd([]chain.Transaction{tx}, total); !ok {
					t.Errorf("producer %d: add %d refused below the watermark", g, i)
					return
				}
			}
		}(g)
	}

	next := make([]uint64, producers)
	drained := 0
	var spare []chain.Transaction
	for drained < total && !t.Failed() {
		spare = q.swap(spare)
		for _, tx := range spare {
			if tx.ID != next[tx.From] {
				t.Fatalf("producer %d: got tx %d, want %d", tx.From, tx.ID, next[tx.From])
			}
			next[tx.From]++
		}
		drained += len(spare)
	}
	wg.Wait()

	if drained != total {
		t.Fatalf("drained %d, want %d", drained, total)
	}
	if n := q.len(); n != 0 {
		t.Fatalf("len() = %d after full drain, want 0", n)
	}
}

// TestQueueTryAddWatermark pins the atomic high-watermark check: a
// batch that would push the queue over max is refused whole, and
// concurrent racers never overshoot the mark.
func TestQueueTryAddWatermark(t *testing.T) {
	var q txQueue
	batch := make([]chain.Transaction, 10)
	const max = 55 // room for 5 full batches, refuses the 6th

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if n, _ := q.tryAdd(batch, max); n > max {
					t.Errorf("tryAdd reported %d queued, over the watermark %d", n, max)
				}
			}
		}()
	}
	wg.Wait()

	if got := q.len(); got != 50 {
		t.Fatalf("len() = %d, want 50 (5 admitted batches)", got)
	}
	if n, ok := q.tryAdd(batch, max); ok || n != 50 {
		t.Fatalf("tryAdd over the watermark = (%d, %v), want (50, false)", n, ok)
	}
	if n, ok := q.tryAdd(batch[:5], max); !ok || n != max {
		t.Fatalf("tryAdd exactly to the watermark = (%d, %v), want (%d, true)", n, ok, max)
	}
}

// TestQueueSwapAdmissionOrder pins that swap returns exactly what was
// admitted, in admission order, and that the spare handed back is the
// buffer the next submissions fill.
func TestQueueSwapAdmissionOrder(t *testing.T) {
	var q txQueue
	if got := q.swap(nil); len(got) != 0 {
		t.Fatalf("swap of an empty queue returned %d txs", len(got))
	}
	id := uint64(0)
	add := func(n int) {
		t.Helper()
		txs := make([]chain.Transaction, n)
		for i := range txs {
			txs[i].ID = id
			id++
		}
		if _, ok := q.tryAdd(txs, 1<<20); !ok {
			t.Fatal("tryAdd refused below the watermark")
		}
	}
	check := func(got []chain.Transaction, from, to uint64) {
		t.Helper()
		if len(got) != int(to-from) {
			t.Fatalf("swap returned %d txs, want %d", len(got), to-from)
		}
		for i, tx := range got {
			if tx.ID != from+uint64(i) {
				t.Fatalf("position %d holds tx %d, want %d", i, tx.ID, from+uint64(i))
			}
		}
	}

	add(3)
	add(1)
	add(4)
	first := q.swap(nil)
	check(first, 0, 8)

	add(2)
	add(5)
	spare := make([]chain.Transaction, 0, 64)
	second := q.swap(spare)
	check(second, 8, 15)

	// The spare from the previous swap now holds new admissions; the
	// buffer handed back is not touched until it is refilled.
	add(6)
	third := q.swap(first)
	check(third, 15, 21)
	if &third[0] != &spare[:1][0] {
		t.Fatal("swap did not fill the spare it was handed")
	}
	check(second, 8, 15)
}
