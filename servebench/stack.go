package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/epoch"
	"mvcom/internal/ingest"
	"mvcom/internal/ingest/swarm"
	"mvcom/internal/obs"
	"mvcom/internal/txgen"
)

// Server-side settings every workload shares: cmd/mvcom-serve's flag
// defaults.
const (
	serveSeed     = 1
	serveAlpha    = 1.5
	serveCapacity = 50000
	serveNmin     = 1
	serveMaxDefer = 2
	serveQueueTxs = 65536
	serveMaxWait  = 100 * time.Millisecond
	serveSEIters  = 800
	serveGamma    = 4
)

// stack is one serving plane assembled in-process from the public
// constructors, plus the generators that drive it.
type stack struct {
	stream *timedStream
	pipe   *epoch.Pipeline
	sched  epoch.SolverScheduler
	// reg is the observers' registry; nil in untraced runs.
	reg *obs.Registry

	journal    *decisionlog.Journal
	journalDir string

	httpSrv  *http.Server
	httpDone chan struct{}
	tcpSrv   *ingest.TCPServer
	// handler and the byte counters exist in traced runs only.
	handler           *timedHandler
	bytesIn, bytesOut atomic.Int64

	gens    []*generator
	closers []func() error
}

// buildStack assembles the stack and dials its clients; the serve loop
// is not started. ringEvents > 0 attaches the program's observers to a
// trace ring of that many events; 0 leaves them nil. dir holds the
// decision journal when the workload keeps one.
func buildStack(w workload, seed int64, window time.Duration, ringEvents int, dir string) (_ *stack, err error) {
	traced := ringEvents > 0
	batches, err := makeBatches(seed, w.clients, w.batch)
	if err != nil {
		return nil, err
	}
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if traced {
		s.reg = obs.NewRegistryWithTrace(ringEvents)
	}
	s.stream = &timedStream{traced: traced, NetStream: ingest.NewStream(ingest.StreamConfig{
		Committees:  w.committees,
		Params:      epoch.EpochParams{Alpha: serveAlpha, Capacity: serveCapacity, Nmin: serveNmin},
		QueueTxs:    serveQueueTxs,
		Rate:        w.bucketRate,
		MinBatchTxs: w.minBatch,
		MaxWait:     serveMaxWait,
		Obs:         obs.NewServeObserver(s.reg),
	})}
	if w.journal {
		s.journalDir = dir
		s.journal, err = decisionlog.Open(decisionlog.Options{Dir: dir, Registry: s.reg})
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, s.journal.Close)
	}
	s.pipe, err = epoch.NewPipeline(epoch.Config{
		Committees:    w.committees,
		CommitteeSize: w.committeeSize,
		NmaxFraction:  1.0,
		MaxDeferrals:  serveMaxDefer,
		Trace:         txgen.Config{Blocks: w.committees * 3, MeanTxs: 1200},
		Seed:          serveSeed,
		Obs:           obs.NewEpochObserver(s.reg),
		DecisionLog:   s.journal,
		Supply:        s.stream,
	})
	if err != nil {
		return nil, err
	}
	s.sched = epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{
		Seed:      serveSeed,
		Gamma:     serveGamma,
		MaxIters:  serveSEIters,
		WarmStart: true,
		Obs:       obs.NewSEObserver(s.reg),
	})}

	targets := make([]swarm.Submitter, w.clients)
	switch w.front {
	case "http":
		ln, err := s.listen(traced)
		if err != nil {
			return nil, err
		}
		var h http.Handler = ingest.NewHandler(s.stream.NetStream, ingest.DefaultMaxBody)
		if traced {
			s.handler = &timedHandler{h: h}
			h = s.handler
		}
		s.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		s.httpDone = make(chan struct{})
		go func() {
			defer close(s.httpDone)
			_ = s.httpSrv.Serve(ln)
		}()
		for i := range targets {
			targets[i] = swarm.Dial("http://" + ln.Addr().String())
		}
	case "tcp":
		ln, err := s.listen(traced)
		if err != nil {
			return nil, err
		}
		s.tcpSrv = ingest.ServeTCP(ln, s.stream.NetStream, ingest.DefaultMaxBody)
		for i := range targets {
			t, err := swarm.DialTCP(s.tcpSrv.Addr().String())
			if err != nil {
				return nil, err
			}
			s.closers = append(s.closers, t.Close)
			targets[i] = t
		}
	case "direct":
		for i := range targets {
			targets[i] = swarm.Direct{Stream: s.stream.NetStream}
		}
	default:
		return nil, fmt.Errorf("workload %s: unknown front end %q", w.name, w.front)
	}
	for i, t := range targets {
		s.gens = append(s.gens, &generator{
			reqs:        make([]request, 0, expectRequests(w, window)),
			source:      fmt.Sprintf("swarm-%d", i),
			committee:   i % w.committees,
			target:      t,
			batches:     batches[i],
			reportEvery: w.reportEvery,
		})
	}
	return s, nil
}

// expectRequests is how many requests one generator records over a run
// of the given window, so that its record never grows mid-run.
func expectRequests(w workload, window time.Duration) int {
	perBatch := 1.0
	if w.reportEvery > 0 {
		perBatch += 1 / float64(w.reportEvery)
	}
	batches := w.rate / float64(w.clients*w.batch) * (warmup + window).Seconds()
	return int(batches*perBatch) + 64
}

// listen opens the loopback listener of the front end, counting bytes
// in traced runs.
func (s *stack) listen(traced bool) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if traced {
		return &countingListener{Listener: ln, in: &s.bytesIn, out: &s.bytesOut}, nil
	}
	return ln, nil
}

// closeFrontEnds stops accepting traffic and waits for the server
// goroutines to exit.
func (s *stack) closeFrontEnds() {
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
		<-s.httpDone
		s.httpSrv = nil
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	if s.tcpSrv != nil {
		_ = s.tcpSrv.Close()
		s.tcpSrv = nil
	}
}

// close releases everything the stack holds. The serve loop must have
// returned (or never started).
func (s *stack) close() error {
	s.closeFrontEnds()
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// epochRec is the serve goroutine's view of one epoch, taken by
// timedStream around the calls Pipeline.Serve makes.
type epochRec struct {
	nextStart, nextEnd, fillStart, fillEnd, deliverStart, deliverEnd time.Time
	// queueIn is the queued plus report-declared txs at NextContext
	// entry, flushed the txs NextContext moved into the epoch (both
	// traced runs only).
	queueIn, flushed int64
	// committed and expired are the epoch's settlement deltas.
	committed, expired int64
	live, selected     int
	deferred, shards   int
}

// timedStream times the serve goroutine's calls into the NetStream. It
// is both the pipeline's Supply and the stream Serve drives, so every
// NextContext, Fill and Deliver passes through it. The Scheduler is
// deliberately not wrapped: the decision journal fingerprints
// epoch.SolverScheduler by type, and a wrapper would make its entries
// unreplayable.
type timedStream struct {
	*ingest.NetStream
	traced bool

	epochs               []epochRec
	cur                  epochRec
	lastCommit, lastExpr int64
}

func (t *timedStream) NextContext(ctx context.Context, n int) (epoch.EpochParams, bool) {
	t.cur = epochRec{nextStart: time.Now()}
	if t.traced {
		st := t.Stats()
		t.cur.queueIn = st.QueueTxs + st.PendingReportTxs
	}
	p, ok := t.NetStream.NextContext(ctx, n)
	t.cur.nextEnd = time.Now()
	if t.traced {
		t.cur.flushed = t.Stats().AssignedTxs
	}
	return p, ok
}

func (t *timedStream) Fill(n int, reports []epoch.CommitteeReport) {
	t.cur.fillStart = time.Now()
	t.NetStream.Fill(n, reports)
	t.cur.fillEnd = time.Now()
}

func (t *timedStream) Deliver(res *epoch.Result) error {
	t.cur.deliverStart = time.Now()
	err := t.NetStream.Deliver(res)
	t.cur.deliverEnd = time.Now()
	st := t.Stats()
	t.cur.committed, t.cur.expired = st.CommittedTxs-t.lastCommit, st.ExpiredTxs-t.lastExpr
	t.lastCommit, t.lastExpr = st.CommittedTxs, st.ExpiredTxs
	t.cur.live = len(res.Live)
	for li := range res.Live {
		if li < len(res.Solution.Selected) && res.Solution.Selected[li] {
			t.cur.selected++
		}
	}
	t.cur.deferred = len(res.Deferred)
	if res.FinalBlock != nil {
		t.cur.shards = len(res.FinalBlock.ShardRoots)
	}
	t.epochs = append(t.epochs, t.cur)
	return err
}

// timedHandler times every ServeHTTP call of the ingest handler.
type timedHandler struct {
	h     http.Handler
	mu    sync.Mutex
	calls [][2]time.Time
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, [2]time.Time{start, end})
	t.mu.Unlock()
}

func (t *timedHandler) snapshot() [][2]time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][2]time.Time(nil), t.calls...)
}

// countingListener counts the bytes its accepted connections carry.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, in: l.in, out: l.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// generator offers one client's requests through a swarm.Submitter and
// records each one.
type generator struct {
	source      string
	committee   int
	target      swarm.Submitter
	batches     [][]chain.Transaction
	reportEvery int
	reqs        []request
}

// clock lets the open-loop test drive a generator on simulated time.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// send makes one Submitter call and records it as a request started
// at start.
func (g *generator) send(clk clock, start time.Time, txs int, report bool, call func() (bool, string, error)) {
	r := request{start: start, sent: clk.Now(), txs: txs, report: report}
	ok, _, err := call()
	r.ack = clk.Now()
	switch {
	case err != nil:
		r.outcome = transportError
	case !ok:
		r.outcome = shed
	}
	g.reqs = append(g.reqs, r)
}

// run offers one batch every interval from start until until, whatever
// the server does, and after every reportEvery-th batch a shard report
// declaring a batch's worth of transactions, as the swarm does. Each
// request is timed from its due time, so a stall also charges the
// requests queued behind it.
func (g *generator) run(clk clock, start time.Time, interval time.Duration, until time.Time) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(until) {
			return
		}
		clk.SleepUntil(due)
		b := g.batches[k%len(g.batches)]
		g.send(clk, due, len(b), false, func() (bool, string, error) { return g.target.SubmitTxs(g.source, b) })
		if g.reportEvery > 0 && (k+1)%g.reportEvery == 0 {
			rep := ingest.Report{Committee: g.committee, TxCount: len(b)}
			g.send(clk, due, len(b), true, func() (bool, string, error) { return g.target.SubmitReport(g.source, rep) })
		}
	}
}
