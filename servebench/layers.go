package main

import (
	"sort"
	"strings"
	"time"

	"mvcom/internal/obs"
)

const (
	// coverTolerance bounds how far the serve goroutine's timed calls
	// (NextContext, epoch run with Fill, Deliver) may fall short of, or
	// overshoot, the window they tile; the rest is Serve's own loop.
	coverTolerance = 0.02
	// phaseTolerance bounds how far the program's epoch spans (phase
	// self times plus the root's self time) may differ from the epoch
	// run the benchmark timed around them (run + Fill).
	phaseTolerance = 0.05
)

// span is one timed interval: the program's obs spans and the
// benchmark's own wrapped calls both reduce to it.
type span struct {
	name       string
	id, parent uint64
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTimes maps each span to its duration less the part of it that
// its child spans cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s.start, s.end, kids[s.id])
	}
	return out
}

// covered is the length of [from, to) that the union of the spans
// covers.
func covered(from, to time.Time, spans []span) time.Duration {
	ivs := make([][2]time.Time, 0, len(spans))
	for _, s := range spans {
		a, b := s.start, s.end
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if a.Before(b) {
			ivs = append(ivs, [2]time.Time{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, iv := range ivs {
		if i > 0 && !iv[0].After(curB) {
			if iv[1].After(curB) {
				curB = iv[1]
			}
			continue
		}
		if i > 0 {
			total += curB.Sub(curA)
		}
		curA, curB = iv[0], iv[1]
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// obsSpans rebuilds the program's spans from their end events, which
// carry the emitter-measured duration.
func obsSpans(events []obs.Event) []span {
	var out []span
	for _, e := range events {
		if e.Type != obs.EvSpanEnd {
			continue
		}
		name := e.Detail
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		out = append(out, span{
			name: name, id: e.SpanID, parent: e.ParentID,
			start: e.At.Add(-time.Duration(e.Value * float64(time.Second))), end: e.At,
		})
	}
	return out
}

// ownSpans are the benchmark's spans around the public calls it wraps:
// per epoch a serve.epoch span parenting ingest.next, epoch.run (which
// parents ingest.fill) and ingest.deliver; per request one client span;
// per HTTP request one handler span.
func (p *pass) ownSpans() []span {
	var out []span
	id := uint64(0)
	add := func(name string, parent uint64, a, b time.Time) uint64 {
		id++
		out = append(out, span{name: name, id: id, parent: parent, start: a, end: b})
		return id
	}
	for _, e := range p.s.stream.epochs {
		root := add("serve.epoch", 0, e.nextStart, e.deliverEnd)
		add("ingest.next", root, e.nextStart, e.nextEnd)
		run := add("epoch.run", root, e.nextEnd, e.deliverStart)
		if !e.fillStart.IsZero() {
			add("ingest.fill", run, e.fillStart, e.fillEnd)
		}
		add("ingest.deliver", root, e.deliverStart, e.deliverEnd)
	}
	for _, c := range p.handlerCalls {
		add("ingest.http.handle", 0, c[0], c[1])
	}
	for _, rs := range p.perGen() {
		for _, r := range rs {
			add(clientSpanName(p.w.front, r.report), 0, r.sent, r.ack)
		}
	}
	return out
}

func clientSpanName(front string, report bool) string {
	switch {
	case front == "direct":
		return "ingest.submit"
	case report:
		return "client." + front + ".report"
	}
	return "client." + front + ".txs"
}

// layerMetrics computes the per-layer metrics of a traced pass and runs
// the layer-sum consistency checks, recording failures on p.
func (p *pass) layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	win := p.windowSeconds()
	ws, we := p.ws.at, p.we.at
	inWin := func(t time.Time) bool { return !t.Before(ws) && t.Before(we) }
	// p50 and p99 report a percentile only when its tail has minTail
	// samples; an unsupported one reads 0.
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 0.50); return v }
	p99 := func(xs []float64) float64 {
		if v, ok := percentile(xs, 0.99); ok {
			return v
		}
		return 0
	}

	// The serve goroutine, from the benchmark's own wrapper.
	var next, fill, deliver, run, flushed, queued []float64
	var drainDur time.Duration
	var drainTxs int64
	// tiles are whole serve-loop turns, nexts their NextContext calls,
	// runs the rest of each turn (epoch run, Fill, Deliver).
	var tiles, nexts, runs []span
	var runFill time.Duration
	n, quiet, live, selected, deferred, shards := 0, 0, 0, 0, 0, 0
	for _, e := range p.s.stream.epochs {
		tiles = append(tiles, span{start: e.nextStart, end: e.deliverEnd})
		nexts = append(nexts, span{start: e.nextStart, end: e.nextEnd})
		runs = append(runs, span{start: e.nextEnd, end: e.deliverEnd})
		if !inWin(e.nextEnd) {
			continue
		}
		fillDur := e.fillEnd.Sub(e.fillStart)
		next = append(next, us(e.nextEnd.Sub(e.nextStart)))
		fill = append(fill, us(fillDur))
		deliver = append(deliver, us(e.deliverEnd.Sub(e.deliverStart)))
		run = append(run, us(e.deliverStart.Sub(e.nextEnd)-fillDur))
		runFill += e.deliverStart.Sub(e.nextEnd)
		flushed = append(flushed, float64(e.flushed))
		queued = append(queued, float64(e.queueIn))
		if e.queueIn >= int64(p.w.minBatch) {
			drainDur += e.nextEnd.Sub(e.nextStart)
			drainTxs += e.flushed
		}
		n++
		if e.live == 0 {
			quiet++
		}
		live += e.live
		selected += e.selected
		deferred += e.deferred
		shards += e.shards
	}
	if n == 0 {
		p.failf("no epoch ran in the window")
		return m
	}
	m["ingest.next_us_p50"] = p50(next)
	m["ingest.next_idle_share"] = covered(ws, we, nexts).Seconds() / win
	m["ingest.flush_txs_p50"] = p50(flushed)
	m["ingest.queue_txs_p99"] = p99(queued)
	m["ingest.fill_us_p50"] = p50(fill)
	m["ingest.deliver_us_p50"] = p50(deliver)
	if drainTxs > 0 {
		m["txpool.drain_ns_per_tx"] = float64(drainDur.Nanoseconds()) / float64(drainTxs)
	}
	m["epoch.run_us_p50"] = p50(run)
	m["epoch.run_us_p99"] = p99(run)
	m["epoch.per_s"] = float64(n) / win
	m["epoch.busy_share"] = covered(ws, we, runs).Seconds() / win
	m["epoch.quiet_frac"] = float64(quiet) / float64(n)
	if live > 0 {
		m["epoch.permit_ratio"] = float64(selected) / float64(live)
	}
	m["epoch.deferred_per_epoch"] = float64(deferred) / float64(n)
	m["chain.shards_per_block"] = float64(shards) / float64(n)
	p.cover = covered(ws, we, tiles).Seconds() / win
	if p.cover < 1-coverTolerance || p.cover > 1+coverTolerance {
		p.failf("layer sum: NextContext + epoch run + Fill + Deliver cover %.4f of the window (tolerance %.2f)", p.cover, coverTolerance)
	}

	// The epoch phases, from the program's own spans.
	spans := obsSpans(p.events)
	self := selfTimes(spans)
	phases := map[string][]float64{}
	var selfSum time.Duration
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	var solveSelf time.Duration
	for _, s := range spans {
		if s.parent == 0 && s.name == "epoch" && inWin(s.start) {
			selfSum += self[s.id]
			phases["self"] = append(phases["self"], us(self[s.id]))
			continue
		}
		root, ok := byID[s.parent]
		if !ok || root.name != "epoch" || !inWin(root.start) {
			continue
		}
		selfSum += self[s.id]
		phases[s.name] = append(phases[s.name], us(self[s.id]))
		if s.name == "solve" {
			solveSelf += self[s.id]
		}
	}
	for _, ph := range []string{"consensus", "collect", "solve", "commit", "self"} {
		m["epoch."+ph+"_us_p50"] = p50(phases[ph])
	}
	if runFill > 0 {
		p.phaseRatio = selfSum.Seconds() / runFill.Seconds()
	}
	if p.phaseRatio < 1-phaseTolerance || p.phaseRatio > 1+phaseTolerance {
		p.failf("layer sum: epoch phase self times sum to %v, the timed epoch runs to %v (tolerance %.2f)", selfSum, runFill, phaseTolerance)
	}
	if rounds := p.we.seRounds - p.ws.seRounds; rounds > 0 {
		m["se.rounds_per_epoch"] = float64(rounds) / float64(n)
		m["se.ns_per_round"] = float64(solveSelf.Nanoseconds()) / float64(rounds)
	}
	if p.verify.Entries > 0 {
		m["decisionlog.bytes_per_entry"] = p.decisionBytes / float64(p.verify.Entries)
	}
	m["obs.trace_dropped"] = float64(p.dropped)
	if p.dropped != 0 {
		p.failf("trace ring dropped %d events; the traced run is invalid", p.dropped)
	}

	// Front ends and generators.
	var handle []float64
	var handleSpans []span
	for _, c := range p.handlerCalls {
		if inWin(c[0]) {
			handle = append(handle, us(c[1].Sub(c[0])))
		}
		handleSpans = append(handleSpans, span{start: c[0], end: c[1]})
	}
	if len(handle) > 0 {
		m["ingest.http.handle_us_p50"] = p50(handle)
		m["ingest.http.handle_us_p99"] = p99(handle)
		m["ingest.http.busy_share"] = busy(ws, we, handleSpans) / float64(p.w.clients)
	}
	if p.w.front != "direct" {
		txs := (p.we.st.AcceptedTxs + p.we.st.ReportTxs) - (p.ws.st.AcceptedTxs + p.ws.st.ReportTxs)
		reqs := p.we.st.Requests - p.ws.st.Requests
		if txs > 0 && reqs > 0 {
			m["ingest.wire.bytes_in_per_tx"] = float64(p.we.bytesIn-p.ws.bytesIn) / float64(txs)
			m["ingest.wire.bytes_out_per_req"] = float64(p.we.bytesOut-p.ws.bytesOut) / float64(reqs)
		}
	}
	var txRTT, repRTT, late []float64
	for _, rs := range p.perGen() {
		for _, r := range rs {
			if !p.inWindow(r) || r.outcome == transportError {
				continue
			}
			if r.report {
				// A report goes out after its batch's ack, so only
				// batches measure how late the generator ran.
				repRTT = append(repRTT, us(r.ack.Sub(r.sent)))
				continue
			}
			txRTT = append(txRTT, us(r.ack.Sub(r.sent)))
			late = append(late, ms(r.sent.Sub(r.start)))
		}
	}
	switch p.w.front {
	case "tcp":
		m["ingest.tcp.txs_rtt_us_p50"] = p50(txRTT)
		m["ingest.tcp.txs_rtt_us_p99"] = p99(txRTT)
		m["ingest.tcp.report_rtt_us_p50"] = p50(repRTT)
	case "direct":
		m["ingest.submit_us_p50"] = p50(txRTT)
		m["ingest.submit_us_p99"] = p99(txRTT)
	}
	m["loadgen.late_p50_ms"] = p50(late)
	m["loadgen.late_p99_ms"] = p99(late)

	// The Go runtime.
	m["runtime.gc_per_s"] = (p.we.rt[rtGCCycles] - p.ws.rt[rtGCCycles]) / win
	if cpu := p.we.rt[rtTotalCPU] - p.ws.rt[rtTotalCPU]; cpu > 0 {
		m["runtime.gc_cpu_share"] = (p.we.rt[rtGCCPU] - p.ws.rt[rtGCCPU]) / cpu
	}
	m["runtime.heap_peak_mb"] = p.heapPeak / 1e6
	return m
}

// busy is the summed time of possibly overlapping spans clipped to
// [from, to), in units of the window: the mean number in flight.
func busy(from, to time.Time, spans []span) float64 {
	var total time.Duration
	for _, s := range spans {
		total += covered(from, to, []span{s})
	}
	return total.Seconds() / to.Sub(from).Seconds()
}
