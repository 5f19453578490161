package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mvcom/internal/benchjournal"
)

// Outcome of one offered request.
const (
	admitted = iota
	shed
	transportError
)

// request is one offered request as its generator saw it.
type request struct {
	// start is the due time; sent and ack bracket the Submitter call.
	start, sent, ack time.Time
	txs              int
	report           bool
	outcome          int
}

// sample is one latency in ms and the start of the request it timed.
type sample struct {
	start time.Time
	ms    float64
}

// attribution is the FIFO commit ledger's verdict on the admitted
// requests that started inside the measured window.
type attribution struct {
	// commits holds admission→commit latencies of requests whose every
	// transaction committed.
	commits []sample
	// expired counts requests with at least one expired transaction;
	// unsettled counts admitted requests no epoch settled.
	expired, unsettled int
}

// attribute walks the admitted requests in admission order and hands
// out each epoch's settled transactions front-first: the epoch's
// expired transactions first (they are the oldest, carried in the
// deferral backlog), then its committed ones. A request commits at the
// Deliver return of the epoch that settles its last transaction;
// a request any of whose transactions expired is a failure.
func attribute(reqs []request, epochs []epochRec, inWindow func(request) bool) attribution {
	var a attribution
	i, rem, hit := 0, 0, false
	if len(reqs) > 0 {
		rem = reqs[0].txs
	}
	settle := func(n int64, commit bool, at time.Time) {
		for n > 0 && i < len(reqs) {
			take := int64(rem)
			if n < take {
				take = n
			}
			rem -= int(take)
			n -= take
			if !commit {
				hit = true
			}
			if rem > 0 {
				continue
			}
			if r := reqs[i]; inWindow(r) {
				if hit {
					a.expired++
				} else {
					a.commits = append(a.commits, sample{r.start, ms(at.Sub(r.start))})
				}
			}
			i, hit = i+1, false
			if i < len(reqs) {
				rem = reqs[i].txs
			}
		}
	}
	for _, e := range epochs {
		settle(e.expired, false, e.deliverEnd)
		settle(e.committed, true, e.deliverEnd)
	}
	for ; i < len(reqs); i++ {
		if inWindow(reqs[i]) {
			a.unsettled++
		}
	}
	return a
}

// admissionOrder returns the admitted requests with transactions, in
// the order the server admitted them. One generator's requests are
// already in order; across generators the ack time is the closest
// observable to the admission instant.
func admissionOrder(perGen [][]request) []request {
	var out []request
	for _, rs := range perGen {
		for _, r := range rs {
			if r.outcome == admitted && r.txs > 0 {
				out = append(out, r)
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ack.Before(out[b].ack) })
	return out
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minTail samples lie strictly beyond its rank; a percentile
// without that support is not reported. xs is sorted in place.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank], n-1-rank >= minTail
}

// sliceP99 splits [from, to) into equal slices of about 1100 samples
// each (at most maxSlices), enough to support a p99 in each, and
// returns the median of the slices' p99s with the p99s themselves. A
// host-side stall in one slice then moves one of them, not the result.
func sliceP99(samples []sample, from, to time.Time, maxSlices int) (float64, []float64, error) {
	n := len(samples) / 1100
	if n > maxSlices {
		n = maxSlices
	}
	if n < 1 {
		n = 1
	}
	slices := make([][]float64, n)
	for _, s := range samples {
		if k := int(int64(s.start.Sub(from)) * int64(n) / int64(to.Sub(from))); k >= 0 && k < n {
			slices[k] = append(slices[k], s.ms)
		}
	}
	tails := make([]float64, n)
	for k, xs := range slices {
		v, ok := percentile(xs, 0.99)
		if !ok {
			return 0, nil, fmt.Errorf("slice %d of %d has %d samples, fewer than %d beyond its p99", k+1, n, len(xs), minTail)
		}
		tails[k] = v
	}
	return benchjournal.NewStat(tails).Median, tails, nil
}

func values(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
