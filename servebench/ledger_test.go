package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/ingest"
)

var t0 = time.Unix(1_700_000_000, 0)

func at(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }

func delivered(msec float64, committed, expired int64) epochRec {
	return epochRec{deliverEnd: at(msec), committed: committed, expired: expired}
}

func everyRequest(request) bool { return true }

func TestAttributeFIFO(t *testing.T) {
	reqs := []request{
		{start: at(0), txs: 200},
		{start: at(1), txs: 200},
		{start: at(2), txs: 20, report: true},
		{start: at(3), txs: 100},
	}
	epochs := []epochRec{
		// A partial commit: the first request settles, the second only
		// in part, so it commits with the next epoch.
		delivered(10, 300, 0),
		// A deferred epoch commits nothing.
		delivered(20, 0, 0),
		// The deferral commits: the rest of request 1 and the report's
		// declared txs, which joined the order like any batch.
		delivered(30, 120, 0),
		delivered(40, 100, 0),
	}
	a := attribute(reqs, epochs, everyRequest)
	if want := []float64{10, 29, 28, 37}; !reflect.DeepEqual(values(a.commits), want) {
		t.Fatalf("commit latencies %v, want %v", values(a.commits), want)
	}
	if a.expired != 0 || a.unsettled != 0 {
		t.Fatalf("expired %d unsettled %d, want 0 0", a.expired, a.unsettled)
	}
}

func TestAttributeExpiryIsFailure(t *testing.T) {
	reqs := []request{
		{start: at(0), txs: 100},
		{start: at(1), txs: 100},
		{start: at(2), txs: 100},
	}
	// Expired txs settle first, from the front: request 0 expires whole,
	// request 1 loses half and so fails too, though the rest of it
	// commits; request 2 commits.
	epochs := []epochRec{delivered(5, 0, 0), delivered(9, 150, 150)}
	a := attribute(reqs, epochs, everyRequest)
	if a.expired != 2 || !reflect.DeepEqual(values(a.commits), []float64{7}) {
		t.Fatalf("expired %d, latencies %v; want 2 expired and [7]", a.expired, values(a.commits))
	}
}

func TestAttributeWindowAndUnsettled(t *testing.T) {
	reqs := []request{
		{start: at(0), txs: 10}, // warm-up: consumes commits, never sampled
		{start: at(5), txs: 10},
		{start: at(6), txs: 10}, // never settled
	}
	inWin := func(r request) bool { return !r.start.Before(at(5)) }
	a := attribute(reqs, []epochRec{delivered(8, 20, 0)}, inWin)
	if !reflect.DeepEqual(values(a.commits), []float64{3}) || a.unsettled != 1 {
		t.Fatalf("latencies %v unsettled %d; want [3] and 1", values(a.commits), a.unsettled)
	}
}

func TestAdmissionOrder(t *testing.T) {
	gens := [][]request{
		{{ack: at(1), txs: 1}, {ack: at(4), txs: 2}, {ack: at(5), txs: 9, outcome: shed}},
		{{ack: at(2), txs: 3}, {ack: at(3), txs: 0, report: true}, {ack: at(6), txs: 4, outcome: transportError}},
	}
	var got []int
	for _, r := range admissionOrder(gens) {
		got = append(got, r.txs)
	}
	if want := []int{1, 3, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("admission order %v, want %v", got, want)
	}
}

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, ok)
	}
	if v, ok := percentile(xs, 0.50); !ok || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestSliceP99(t *testing.T) {
	// 4400 samples over 4 s make four slices of 1100. Slice 2 holds a
	// stall: its p99 is high, the median of the four is not.
	var xs []sample
	for i := 0; i < 4400; i++ {
		v := float64(i % 100)
		if i/1100 == 2 && i%100 >= 90 {
			v = 1000
		}
		xs = append(xs, sample{start: at(float64(i) * 4000 / 4400), ms: v})
	}
	med, tails, err := sliceP99(xs, t0, at(4000), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tails, []float64{98, 98, 1000, 98}) || med != 98 {
		t.Fatalf("slice p99s %v, median %v; want [98 98 1000 98] and 98", tails, med)
	}
	if _, _, err := sliceP99(xs[:999], t0, at(1000), 10); err == nil {
		t.Fatal("999 samples cannot support a p99, and sliceP99 reported one")
	}
}

// fakeClock is simulated time: sleeping jumps to the deadline, and the
// target's calls advance it by their cost.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// stallTarget accepts everything; call k costs cost[k] of clock time.
type stallTarget struct {
	clk   *fakeClock
	cost  []time.Duration
	calls int
}

func (s *stallTarget) SubmitTxs(string, []chain.Transaction) (bool, string, error) {
	s.clk.now = s.clk.now.Add(s.cost[s.calls])
	s.calls++
	return true, "", nil
}

func (s *stallTarget) SubmitReport(string, ingest.Report) (bool, string, error) {
	return true, "", nil
}

func TestOpenLoopLateness(t *testing.T) {
	clk := &fakeClock{now: t0}
	ms := time.Millisecond
	target := &stallTarget{clk: clk, cost: []time.Duration{ms / 10, ms / 10, 5 * ms, ms / 10, ms / 10, ms / 10, ms / 10}}
	g := &generator{target: target, reportEvery: 3, batches: [][]chain.Transaction{make([]chain.Transaction, 3)}}
	g.run(clk, t0, ms, at(7))
	var batches []request
	for i, r := range g.reqs {
		if r.report {
			// A report follows every third batch and shares its due time.
			if prev := g.reqs[i-1]; prev.report || !r.start.Equal(prev.start) || r.txs != 3 {
				t.Errorf("report %d: start %v after batch start %v, txs %d", i, r.start.Sub(t0), prev.start.Sub(t0), r.txs)
			}
			continue
		}
		batches = append(batches, r)
	}
	if len(batches) != 7 || len(g.reqs) != 9 {
		t.Fatalf("%d batches and %d requests offered in 7 intervals, want 7 and 9", len(batches), len(g.reqs))
	}
	// Batch 2 stalls the generator for 5 ms: the batches due during the
	// stall are sent late but still timed from their due time.
	wantLate := []float64{0, 0, 0, 4, 3.1, 2.2, 1.3}
	for k, r := range batches {
		if !r.start.Equal(at(float64(k))) {
			t.Errorf("batch %d starts at %v, want its due time %v", k, r.start.Sub(t0), time.Duration(k)*ms)
		}
		if late := r.sent.Sub(r.start); late != time.Duration(wantLate[k]*float64(ms)) {
			t.Errorf("batch %d late by %v, want %vms", k, late, wantLate[k])
		}
		if r.txs != 3 || r.outcome != admitted {
			t.Errorf("batch %d: txs %d outcome %d", k, r.txs, r.outcome)
		}
	}
}

func TestBatchesDeterministic(t *testing.T) {
	encode := func(seed int64) []byte {
		b, err := makeBatches(seed, 2, 200)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := encode(7), encode(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different batches")
	}
	if bytes.Equal(a, encode(8)) {
		t.Fatal("different seeds gave identical batches")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "epoch", id: 1, start: at(0), end: at(10)},
		{name: "consensus", id: 2, parent: 1, start: at(1), end: at(4)},
		{name: "solve", id: 3, parent: 1, start: at(3), end: at(6)}, // overlaps consensus
		{name: "inner", id: 4, parent: 3, start: at(4), end: at(5)},
		{name: "late", id: 5, parent: 1, start: at(9), end: at(12)}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 4 * time.Millisecond, 2: 3 * time.Millisecond, 3: 2 * time.Millisecond, 4: time.Millisecond, 5: 3 * time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark's
// runner reads, in step with the metrics and workloads this command
// prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var got []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", got, names)
	}
	for _, c := range []struct {
		list string
		defs []metricDef
		doc  []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, doc.EndToEnd}, {"per_layer", perLayer, doc.PerLayer}} {
		if len(c.doc) != len(c.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", c.list, len(c.doc), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if m := c.doc[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, command prints %s %s %s", c.list, i, m, d.name, d.unit, d.better)
			}
		}
	}
}

// raceDetector is set when the tests run under -race, whose
// instrumentation slows the code between the program's epoch spans and
// the benchmark's timers enough to break the layer-sum tolerance.
var raceDetector bool

// TestPassSmoke runs every workload briefly, traced, through the whole
// pass: stack, load, drain, output checks and layer sums.
func TestPassSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the full stack for a few seconds per workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := runPass(w, 1, 500*time.Millisecond, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			layers := p.layerMetrics()
			for _, f := range p.failures {
				if raceDetector && strings.HasPrefix(f, "layer sum") {
					t.Log(f)
					continue
				}
				t.Error(f)
			}
			if committed := p.we.st.CommittedTxs - p.ws.st.CommittedTxs; committed <= 0 {
				t.Errorf("committed %d txs in the window", committed)
			}
			if layers["epoch.per_s"] <= 0 || layers["obs.trace_dropped"] != 0 {
				t.Errorf("epoch.per_s %v, trace_dropped %v", layers["epoch.per_s"], layers["obs.trace_dropped"])
			}
		})
	}
}
