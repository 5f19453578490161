package main

import (
	"fmt"

	"mvcom/internal/chain"
	"mvcom/internal/randx"
	"mvcom/internal/txgen"
)

// workload is one traffic mix against one stack configuration. The
// server side mirrors cmd/mvcom-serve's defaults unless a field says
// otherwise.
type workload struct {
	name string
	// front is "http", "tcp" or "direct" (NetStream.Submit, no codec).
	front string
	// clients is how many generators (connections) offer load; together
	// they offer rate tx/s in batch-sized requests, on a fixed schedule.
	clients int
	rate    float64
	batch   int
	// reportEvery sends a shard report after every n-th batch (0 = off).
	reportEvery int

	committees, committeeSize int
	minBatch                  int
	// bucketRate turns per-source token buckets on (tx/s; 0 = off).
	bucketRate float64
	journal    bool
	// traceEventsPerSec bounds the program's trace-event rate; the
	// traced run sizes its event ring from it so that nothing emitted in
	// warm-up, window or drain is evicted. Each is 3.4–3.8 times the
	// rate the workload emitted over a 30 s traced run on a 2-vCPU guest
	// (3900, 2800 and 5800 events/s): the ring is allocated up front, at
	// about 250 B an event.
	traceEventsPerSec int
}

// Why each workload exists, and what it predicts, is in README.md; the
// numbers here are what the predictions are written against.
var workloads = []workload{
	{
		name: "http-open", front: "http", clients: 2, rate: 100000, batch: 200,
		committees: 8, committeeSize: 4, minBatch: 500,
		traceEventsPerSec: 15000,
	},
	{
		name: "tcp-mixed", front: "tcp", clients: 2, rate: 60000, batch: 20, reportEvery: 8,
		committees: 8, committeeSize: 4, minBatch: 500, bucketRate: 1e9,
		traceEventsPerSec: 10000,
	},
	{
		name: "epoch-open", front: "direct", clients: 1, rate: 75000, batch: 200,
		committees: 64, committeeSize: 16, minBatch: 1000, journal: true,
		traceEventsPerSec: 20000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// genTrace is the synthetic trace the client batches are cut from: the
// swarm's default shape (cmd/mvcom-serve -swarm).
var genTrace = txgen.Config{Blocks: 64, MeanTxs: 800, MinTxs: 200, MaxTxs: 3000}

// makeBatches derives every generator's batches from the seed alone:
// the trace is split into one shard per generator and each shard's
// transactions are cut into batch-sized requests, which the generator
// then cycles through. The same seed gives byte-identical batches.
func makeBatches(seed int64, generators, batch int) ([][][]chain.Transaction, error) {
	rng := randx.New(seed)
	trace := txgen.Generate(rng, genTrace)
	shards, err := trace.IntoShards(rng, generators)
	if err != nil {
		return nil, fmt.Errorf("shard the trace: %w", err)
	}
	out := make([][][]chain.Transaction, generators)
	for g := range out {
		txs := trace.Transactions(shards[g], rng.Split())
		if len(txs) < batch {
			return nil, fmt.Errorf("generator %d: %d txs, fewer than one batch of %d", g, len(txs), batch)
		}
		for lo := 0; lo+batch <= len(txs); lo += batch {
			out[g] = append(out[g], txs[lo:lo+batch:lo+batch])
		}
	}
	return out, nil
}
