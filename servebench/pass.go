package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"mvcom/internal/benchjournal"
	"mvcom/internal/decisionlog"
	"mvcom/internal/ingest"
	"mvcom/internal/obs"
)

const (
	// warmup runs load before the window opens, so the window sees a
	// warm heap, warm connections and warm-started SE.
	warmup = 2 * time.Second
	// setupRepeats is how many times a pass assembles the stack; setup_s
	// is their median and the last one serves.
	setupRepeats = 21
	// maxTailSlices caps how many equal slices of the window each p99 is
	// taken over; the reported p99 is their median (see sliceP99).
	maxTailSlices = 10
	// drainSlack is the time the traced run's event ring is sized to
	// hold beyond warm-up and window, for the drain epochs.
	drainSlack = 2 * time.Second
	// offeredTolerance bounds how far the committed rate may fall from
	// the admitted rate before the run is invalid: an open loop the stack
	// cannot keep up with measures a growing backlog, not the stack.
	offeredTolerance = 0.02
)

// runtime/metrics read at the window edges.
var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

const (
	rtGCCycles = iota
	rtGCCPU
	rtTotalCPU
	rtAllocBytes
)

// snap is the state read at a window edge.
type snap struct {
	at                time.Time
	st                ingest.Stats
	cpu               time.Duration
	rt                []float64
	bytesIn, bytesOut int64
	seRounds          int64
}

func (s *stack) snap() snap {
	out := snap{at: time.Now(), st: s.stream.Stats(), cpu: processCPU()}
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for _, sm := range samples {
		out.rt = append(out.rt, sampleValue(sm))
	}
	out.bytesIn, out.bytesOut = s.bytesIn.Load(), s.bytesOut.Load()
	if s.reg != nil {
		out.seRounds = s.reg.Counter("mvcom_se_rounds_total", "").Value()
	}
	return out
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// processCPU is the process's user plus system CPU time, load
// generators included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one measured run of a workload: set-up, warm-up, window,
// drain, and the output checks.
type pass struct {
	w      workload
	setups []float64
	ws, we snap
	s      *stack
	final  ingest.Stats
	verify decisionlog.VerifyStats

	// Traced runs only.
	ringEvents    int
	events        []obs.Event
	dropped       uint64
	decisionBytes float64
	heapPeak      float64
	handlerCalls  [][2]time.Time
	// cover is the share of the window the serve goroutine's timed calls
	// tile; phaseRatio is the epoch spans' summed self times over the
	// timed epoch runs.
	cover, phaseRatio float64

	// failures lists every output check that did not hold.
	failures []string
}

func (p *pass) failf(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *pass) inWindow(r request) bool {
	return !r.start.Before(p.ws.at) && r.start.Before(p.we.at)
}

func (p *pass) windowSeconds() float64 { return p.we.at.Sub(p.ws.at).Seconds() }

func (p *pass) perGen() [][]request {
	out := make([][]request, len(p.s.gens))
	for i, g := range p.s.gens {
		out[i] = g.reqs
	}
	return out
}

// runPass measures one pass. workRoot holds the pass's scratch files
// (the decision journal) and is cleaned up before return. An error
// means the pass could not run; failed output checks are recorded in
// p.failures instead.
func runPass(w workload, seed int64, window time.Duration, traced bool, workRoot string) (*pass, error) {
	dir, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	p := &pass{w: w}
	if traced {
		p.ringEvents = int(float64(w.traceEventsPerSec) * (warmup + window + drainSlack).Seconds())
	}
	for i := 0; i < setupRepeats; i++ {
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		s, err := buildStack(w, seed, window, p.ringEvents, filepath.Join(dir, fmt.Sprintf("journal-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			p.s = s
		} else if err := s.close(); err != nil {
			return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
		}
	}
	s := p.s
	defer s.close()

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.pipe.Serve(context.Background(), s.sched, s.stream) }()
	var heap *heapSampler
	if traced {
		heap = startHeapSampler()
	}

	start := time.Now()
	opens, closes := start.Add(warmup), start.Add(warmup+window)
	interval := time.Duration(float64(w.batch) * float64(w.clients) / w.rate * float64(time.Second))
	var wg sync.WaitGroup
	for i, g := range s.gens {
		wg.Add(1)
		go func(g *generator, first time.Time) {
			defer wg.Done()
			g.run(realClock{}, first, interval, closes)
		}(g, start.Add(interval*time.Duration(i)/time.Duration(w.clients)))
	}
	realClock{}.SleepUntil(opens)
	p.ws = s.snap()
	realClock{}.SleepUntil(closes)
	p.we = s.snap()
	wg.Wait()

	// Drain settles everything admitted, then Serve returns.
	s.stream.Drain()
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("serve %s: %w", w.name, err)
	}
	if traced {
		p.heapPeak = heap.stop()
		p.events, p.dropped = s.reg.Tracer().Snapshot()
		if s.handler != nil {
			p.handlerCalls = s.handler.snapshot()
		}
	}
	s.closeFrontEnds()
	p.final = s.stream.Stats()
	p.check()
	if s.journal != nil {
		if err := s.journal.Sync(); err != nil {
			p.failf("decision journal sync: %v", err)
		}
		if traced {
			p.decisionBytes = s.reg.Gauge("mvcom_decision_bytes", "").Value()
		}
		if err := s.close(); err != nil {
			p.failf("close the stack: %v", err)
		}
		p.verify, err = decisionlog.VerifyDir(s.journalDir)
		switch {
		case err != nil:
			p.failf("decision journal: %v", err)
		case p.verify.Entries == 0 || !p.verify.Ok():
			p.failf("decision journal replay: %d entries, %d failed %v", p.verify.Entries, p.verify.Failed, p.verify.Errors)
		}
	}
	return p, nil
}

// check runs the output checks on the settled books.
func (p *pass) check() {
	st := p.final
	if st.AccountingGap() != 0 || st.Unsettled() != 0 || st.AccountingErrors != 0 {
		p.failf("books not settled: gap %d, unsettled %d, accounting errors %d", st.AccountingGap(), st.Unsettled(), st.AccountingErrors)
	}
	if err := p.s.pipe.Chain().Verify(); err != nil {
		p.failf("root chain: %v", err)
	}
	var clientTxs int64
	for _, rs := range p.perGen() {
		for _, r := range rs {
			if r.outcome == admitted {
				clientTxs += int64(r.txs)
			}
		}
	}
	if server := st.AcceptedTxs + st.ReportTxs; clientTxs != server {
		p.failf("clients saw %d txs accepted, server admitted %d", clientTxs, server)
	}
}

// e2e computes the end-to-end metrics with their sample counts, and
// the request tallies of the window.
type e2e struct {
	values              map[string]float64
	samples             map[string]int
	attempted, failed   int
	offeredTxs, lostTxs int64
	// commitTails and ackTails are the per-slice p99s the reported p99s
	// are the medians of.
	commitTails, ackTails []float64
}

func (p *pass) endToEnd() (e2e, error) {
	out := e2e{values: map[string]float64{}, samples: map[string]int{}}
	setup := benchjournal.NewStat(p.setups)
	out.values["setup_s"], out.samples["setup_s"] = setup.Median, setup.Count

	win := p.windowSeconds()
	committed := float64(p.we.st.CommittedTxs - p.ws.st.CommittedTxs)
	if committed <= 0 {
		return out, fmt.Errorf("nothing committed in the window")
	}
	epochs := int(p.we.st.Epochs - p.ws.st.Epochs)
	out.values["committed_tps"], out.samples["committed_tps"] = committed/win, epochs
	offered := float64(p.we.st.AcceptedTxs + p.we.st.ReportTxs - p.ws.st.AcceptedTxs - p.ws.st.ReportTxs)
	if d := committed/offered - 1; d > offeredTolerance || d < -offeredTolerance {
		p.failf("the stack did not keep up: committed %.0f of %.0f txs admitted in the window", committed, offered)
	}

	att := attribute(admissionOrder(p.perGen()), p.s.stream.epochs, p.inWindow)
	var acks []sample
	for _, rs := range p.perGen() {
		for _, r := range rs {
			out.offeredTxs += int64(r.txs)
			if r.outcome != admitted {
				out.lostTxs += int64(r.txs)
			}
			if !p.inWindow(r) {
				continue
			}
			out.attempted++
			if r.outcome != admitted {
				out.failed++
			}
			if r.outcome != transportError {
				acks = append(acks, sample{r.start, ms(r.ack.Sub(r.sent))})
			}
		}
	}
	out.failed += att.expired + att.unsettled
	out.lostTxs += p.final.ExpiredTxs
	for _, q := range []struct {
		name  string
		xs    []sample
		tails *[]float64
	}{{"commit", att.commits, &out.commitTails}, {"ack", acks, &out.ackTails}} {
		v, ok := percentile(values(q.xs), 0.50)
		if !ok {
			return out, fmt.Errorf("%s_p50_ms: no samples", q.name)
		}
		out.values[q.name+"_p50_ms"], out.samples[q.name+"_p50_ms"] = v, len(q.xs)
		v, tails, err := sliceP99(q.xs, p.ws.at, p.we.at, maxTailSlices)
		if err != nil {
			return out, fmt.Errorf("%s_p99_ms: %w", q.name, err)
		}
		out.values[q.name+"_p99_ms"], out.samples[q.name+"_p99_ms"], *q.tails = v, len(q.xs), tails
	}
	out.values["cpu_us_per_tx"] = us(p.we.cpu-p.ws.cpu) / committed
	out.values["alloc_bytes_per_tx"] = (p.we.rt[rtAllocBytes] - p.ws.rt[rtAllocBytes]) / committed
	out.samples["cpu_us_per_tx"], out.samples["alloc_bytes_per_tx"] = int(committed), int(committed)
	return out, nil
}

// failedFrac is the share of offered txs shed, lost to transport
// errors, or expired, over the whole pass.
func (e e2e) failedFrac() float64 {
	if e.offeredTxs == 0 {
		return 0
	}
	return float64(e.lostTxs) / float64(e.offeredTxs)
}

// heapSampler tracks the peak live-heap size while a traced pass runs.
type heapSampler struct {
	done chan struct{}
	peak chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			metrics.Read(sample)
			if v := sampleValue(sample[0]); v > peak {
				peak = v
			}
			select {
			case <-tick.C:
			case <-h.done:
				h.peak <- peak
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.done)
	return <-h.peak
}
