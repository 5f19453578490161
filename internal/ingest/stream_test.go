package ingest

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/epoch"
	"mvcom/internal/txgen"
)

// testPipeline builds a Supply-driven pipeline matching the stream's
// committee count.
func testPipeline(t *testing.T, committees int, stream *NetStream, maxDeferrals int, seed int64) *epoch.Pipeline {
	t.Helper()
	p, err := epoch.NewPipeline(epoch.Config{
		Committees:    committees,
		CommitteeSize: 4,
		Trace:         txgen.Config{Blocks: committees * 4, MeanTxs: 800, MinTxs: 100, MaxTxs: 3000},
		Seed:          seed,
		NmaxFraction:  1, // every committee arrives: refusals come only from capacity
		MaxDeferrals:  maxDeferrals,
		Supply:        stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkTxs(n int, base uint64) []chain.Transaction {
	txs := make([]chain.Transaction, n)
	for i := range txs {
		txs[i] = chain.Transaction{ID: base + uint64(i), Amount: 1}
	}
	return txs
}

// checkSettled asserts the post-drain accounting: the identity holds,
// nothing is left unsettled, and no epoch tripped the negative-residue
// detector.
func checkSettled(t *testing.T, st Stats) {
	t.Helper()
	if st.AccountingErrors != 0 {
		t.Fatalf("accounting errors: %+v", st)
	}
	if gap := st.AccountingGap(); gap != 0 {
		t.Fatalf("accounting gap %d: %+v", gap, st)
	}
	if u := st.Unsettled(); u != 0 {
		t.Fatalf("unsettled %d after drain: %+v", u, st)
	}
}

// TestNetStreamServesAndSettles is the end-to-end integration: wire
// traffic (tx batches and shard reports) batched into epochs through a
// real pipeline, drained gracefully, every admitted transaction settled
// committed-or-expired, and the final drain epoch delivered before
// Serve returns.
func TestNetStreamServesAndSettles(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees:  4,
		Params:      epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		MinBatchTxs: 100,
		MaxWait:     20 * time.Millisecond,
	})
	p := testPipeline(t, 4, stream, 0, 61)

	errc := make(chan error, 1)
	go func() {
		errc <- p.Serve(context.Background(), epoch.AcceptAll{}, stream)
	}()

	for i := 0; i < 10; i++ {
		if reason := stream.Submit("client", mkTxs(50, uint64(i)*1000)); reason != "" {
			t.Errorf("batch %d shed: %s", i, reason)
		}
		if reason := stream.SubmitReport("shard", Report{Committee: i % 4, TxCount: 7}); reason != "" {
			t.Errorf("report %d shed: %s", i, reason)
		}
		time.Sleep(2 * time.Millisecond)
	}

	stream.Drain()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not end after Drain")
	}

	st := stream.Stats()
	if st.AcceptedTxs != 500 || st.ReportTxs != 70 {
		t.Fatalf("admitted %d txs + %d report txs, want 500 + 70", st.AcceptedTxs, st.ReportTxs)
	}
	if st.CommittedTxs != 570 {
		t.Fatalf("committed %d, want all 570 (unbounded capacity): %+v", st.CommittedTxs, st)
	}
	checkSettled(t, st)
	if st.Epochs < 1 {
		t.Fatal("no epochs delivered")
	}
	if h := p.Chain().Height(); int64(h) != st.Epochs {
		t.Fatalf("chain height %d != epochs %d", h, st.Epochs)
	}
	// Post-drain traffic is shed, not silently dropped.
	if reason := stream.Submit("late", mkTxs(1, 1<<40)); reason != "drain" {
		t.Fatalf("post-drain submit: reason %q, want drain", reason)
	}
}

// TestNetStreamExpiryAccounting drives refusals (capacity below supply)
// with a deferral bound, so some transactions must settle as expired —
// and the books still balance.
func TestNetStreamExpiryAccounting(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees:  4,
		Params:      epoch.EpochParams{Alpha: 1.5, Capacity: 120, Nmin: 1},
		MinBatchTxs: 200,
		MaxWait:     20 * time.Millisecond,
	})
	p := testPipeline(t, 4, stream, 1, 62)

	errc := make(chan error, 1)
	go func() {
		errc <- p.Serve(context.Background(), epoch.AcceptAll{}, stream)
	}()

	for i := 0; i < 6; i++ {
		if reason := stream.Submit("client", mkTxs(200, uint64(i)*1000)); reason != "" {
			t.Errorf("batch %d shed: %s", i, reason)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stream.Drain()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not end after Drain")
	}

	st := stream.Stats()
	checkSettled(t, st)
	if st.ExpiredTxs == 0 {
		t.Fatalf("no expirations under sustained over-capacity with MaxDeferrals=1: %+v", st)
	}
	if st.CommittedTxs == 0 {
		t.Fatalf("nothing committed: %+v", st)
	}
	if st.CommittedTxs+st.ExpiredTxs != st.AcceptedTxs {
		t.Fatalf("committed %d + expired %d != accepted %d", st.CommittedTxs, st.ExpiredTxs, st.AcceptedTxs)
	}
}

// TestNetStreamCancelUnblocks: a Serve blocked in NextContext (no
// traffic, long MaxWait) must return context.Canceled promptly on
// cancel — the serve-loop cancellation bugfix exercised through the
// real networked stream.
func TestNetStreamCancelUnblocks(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		MaxWait:    time.Hour, // never flush on its own
	})
	p := testPipeline(t, 4, stream, 0, 63)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- p.Serve(ctx, epoch.AcceptAll{}, stream)
	}()
	time.Sleep(20 * time.Millisecond) // let Serve reach the blocking wait
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve stayed blocked after cancel")
	}
}

// TestNetStreamQuietEpochs: with MaxWait elapsing and no traffic, the
// stream still runs (quiet) epochs, so the chain keeps growing and
// MaxEpochs bounds the run.
func TestNetStreamQuietEpochs(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		MaxWait:    time.Millisecond,
		MaxEpochs:  3,
	})
	p := testPipeline(t, 4, stream, 0, 64)
	if err := p.Serve(context.Background(), epoch.AcceptAll{}, stream); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := stream.Stats()
	if st.Epochs != 3 {
		t.Fatalf("epochs = %d, want 3", st.Epochs)
	}
	if h := p.Chain().Height(); h != 3 {
		t.Fatalf("chain height = %d, want 3 (quiet epochs still commit empty blocks)", h)
	}
	checkSettled(t, st)
}

// TestNetStreamInvalidAndWatermark covers the direct-submit admission
// branches: empty batches and out-of-range reports are invalid, and the
// queue watermark sheds whole batches.
func TestNetStreamInvalidAndWatermark(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 2,
		QueueTxs:   100,
	})
	if reason := stream.Submit("a", nil); reason != "invalid" {
		t.Fatalf("empty batch: %q", reason)
	}
	for _, rep := range []Report{
		{Committee: -1, TxCount: 1},
		{Committee: 2, TxCount: 1},
		{Committee: 0, TxCount: -1},
		{Committee: 0, TxCount: 1, Latency: -2},
	} {
		if reason := stream.SubmitReport("a", rep); reason != "invalid" {
			t.Fatalf("report %+v: reason %q, want invalid", rep, reason)
		}
	}
	if reason := stream.Submit("a", mkTxs(100, 0)); reason != "" {
		t.Fatalf("batch at watermark shed: %q", reason)
	}
	if reason := stream.Submit("a", mkTxs(1, 500)); reason != "queue" {
		t.Fatalf("batch over watermark: reason %q, want queue", reason)
	}
	st := stream.Stats()
	if st.ShedInvalid != 5 || st.ShedQueue != 1 || st.AcceptedTxs != 100 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestNetStreamBoundsReportFields is the regression test for unbounded
// report fields: a latency beyond the ceiling (or NaN) used to overflow
// time.Duration in Fill and end Serve with "negative latency", and two
// MaxInt64/2+1 counts used to wrap ReportTxs negative. Both are now shed
// as invalid at admission, and Serve keeps running.
func TestNetStreamBoundsReportFields(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 2,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs:   1000,
		MaxWait:    5 * time.Millisecond,
		MaxEpochs:  2,
	})
	// Both ceilings are inclusive. The hostile reports come after this
	// one, so an admitted hostile latency would be the one Fill applies.
	if reason := stream.SubmitReport("a", Report{Committee: 0, TxCount: 1000, Latency: maxReportLatency}); reason != "" {
		t.Fatalf("report at the ceilings shed: %q", reason)
	}
	for _, rep := range []Report{
		{Committee: 0, TxCount: 1, Latency: 1e10},
		{Committee: 0, TxCount: 1, Latency: math.NaN()},
		{Committee: 0, TxCount: 1, Latency: math.Inf(1)},
		{Committee: 1, TxCount: math.MaxInt64/2 + 1},
		{Committee: 1, TxCount: math.MaxInt64/2 + 1},
		{Committee: 1, TxCount: 1001},
	} {
		if reason := stream.SubmitReport("a", rep); reason != "invalid" {
			t.Errorf("report %+v: reason %q, want invalid", rep, reason)
		}
	}
	p := testPipeline(t, 2, stream, 0, 65)
	if err := p.Serve(context.Background(), epoch.AcceptAll{}, stream); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := stream.Stats()
	if st.ShedInvalid != 6 || st.ShedTxs != 3 || st.ReportTxs != 1000 || st.Epochs != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if gap := st.AccountingGap(); gap != 0 {
		t.Fatalf("accounting gap %d: %+v", gap, st)
	}
}

// TestNetStreamWakesAtMinBatch pins the wake rule: submissions that leave
// the queue below MinBatchTxs, and reports, do not end NextContext, and
// the submission that reaches MinBatchTxs ends it at once rather than at
// MaxWait.
func TestNetStreamWakesAtMinBatch(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees:  2,
		MinBatchTxs: 100,
		MaxWait:     10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan bool, 1)
	go func() {
		_, ok := stream.NextContext(ctx, 0)
		done <- ok
	}()

	for i := 0; i < 9; i++ {
		if reason := stream.Submit("a", mkTxs(10, uint64(i)*10)); reason != "" {
			t.Fatalf("batch %d shed: %s", i, reason)
		}
	}
	if reason := stream.SubmitReport("a", Report{Committee: 0, TxCount: 500}); reason != "" {
		t.Fatalf("report shed: %s", reason)
	}
	select {
	case <-done:
		t.Fatal("NextContext returned with the queue below MinBatchTxs")
	case <-time.After(50 * time.Millisecond):
	}

	if reason := stream.Submit("a", mkTxs(10, 90)); reason != "" {
		t.Fatalf("crossing batch shed: %s", reason)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("NextContext ended the stream instead of flushing")
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("the submission reaching MinBatchTxs did not end NextContext within 100ms")
	}
	if st := stream.Stats(); st.AssignedTxs != 600 || st.QueueTxs != 0 {
		t.Fatalf("flush: %+v", st)
	}
}
