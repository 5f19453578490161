// Command servebench is the serving plane's end-to-end benchmark. It
// assembles the stack cmd/mvcom-serve runs (ingest front end, NetStream,
// epoch pipeline, SE scheduler, root chain, decision journal) in one
// process, drives it over loopback from the same process, checks the
// settled books, and prints its metrics; the last line of its output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run from the repository root:
//
//	bash servebench/run.sh --workload http-open --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the workload untraced and again with the program's observers
// attached, and prints the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mvcom/internal/benchjournal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errIncorrect marks a run whose output checks failed; its result line
// is still printed, with correct=false.
var errIncorrect = errors.New("output checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: http-open, tcp-mixed or epoch-open")
	seed := fs.Int64("seed", 1, "seed the client batches are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = also run traced and print the per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build/servebench", "scratch directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	env, err := json.Marshal(benchjournal.CurrentEnv())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "servebench %s seed=%d window=%ds trace=%d env=%s\n", w.name, *seed, *seconds, *trace, env)

	window := time.Duration(*seconds) * time.Second
	plain, err := runPass(w, *seed, window, false, *workDir)
	if err != nil {
		return err
	}
	plainE2E, err := plain.endToEnd()
	if err != nil {
		return err
	}
	printEndToEnd(stdout, "untraced", plainE2E)
	res := result{Metrics: map[string]metricValue{}}
	failures := plain.failures
	if *trace == 0 {
		res.Attempted, res.Failed = plainE2E.attempted, plainE2E.failed
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{plainE2E.values[d.name], d.unit}
		}
	} else {
		traced, err := runPass(w, *seed, window, true, *workDir)
		if err != nil {
			return err
		}
		tracedE2E, err := traced.endToEnd()
		if err != nil {
			return err
		}
		printEndToEnd(stdout, "traced", tracedE2E)
		layers := traced.layerMetrics()
		layers["failed_frac"] = tracedE2E.failedFrac()
		layers["ack_p99_ms"] = tracedE2E.values["ack_p99_ms"]
		layers["obs.trace_overhead_pct"] = traceOverhead(plainE2E, tracedE2E)
		failures = append(failures, traced.failures...)
		res.Attempted, res.Failed = tracedE2E.attempted, tracedE2E.failed
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
			fmt.Fprintf(stdout, "  %-32s %14.4f %-6s -> %s\n", d.name, layers[d.name], d.unit, d.predicts)
		}
		fmt.Fprintf(stdout, "layer sums: serve goroutine's timed calls cover %.4f of the window (tolerance %.2f); epoch phase self times / timed epoch runs = %.4f (tolerance %.2f)\n",
			traced.cover, coverTolerance, traced.phaseRatio, phaseTolerance)
		path := filepath.Join(*workDir, "spans", w.name+".jsonl")
		if err := writeSpans(path, traced.ownSpans(), traced.ws.at); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchmark spans written to %s; trace ring held %d of %d events\n",
			path, traced.s.reg.Tracer().Emitted(), traced.ringEvents)
	}
	for _, f := range failures {
		fmt.Fprintln(stdout, "CHECK FAILED:", f)
	}
	res.Correct = len(failures) == 0
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// traceOverhead is the CPU tracing adds per committed transaction, in
// percent of the untraced run's. Every workload commits its offered
// rate, so CPU per transaction is the headline tracing can move.
func traceOverhead(plain, traced e2e) float64 {
	return 100 * (traced.values["cpu_us_per_tx"]/plain.values["cpu_us_per_tx"] - 1)
}

func printEndToEnd(out io.Writer, label string, e e2e) {
	fmt.Fprintf(out, "%s: %d requests in the window, %d failed; failed_frac %.6f of %d txs offered\n",
		label, e.attempted, e.failed, e.failedFrac(), e.offeredTxs)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-20s %14.4f %-5s n=%d\n", d.name, e.values[d.name], d.unit, e.samples[d.name])
	}
	fmt.Fprintf(out, "  %-20s %14.4f %-5s n=%d (per-layer only)\n", "ack_p99_ms", e.values["ack_p99_ms"], "ms", e.samples["ack_p99_ms"])
	fmt.Fprintf(out, "  p99 of each slice of the window: commit %.3f, ack %.3f\n", e.commitTails, e.ackTails)
}

// writeSpans dumps spans as JSON lines, times in ns from the window's
// start.
func writeSpans(path string, spans []span, origin time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"name":`...)
		line = strconv.AppendQuote(line, s.name)
		line = append(line, `,"id":`...)
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.parent, 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start.Sub(origin).Nanoseconds(), 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end.Sub(origin).Nanoseconds(), 10)
		line = append(line, "}\n"...)
		if _, err := bw.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
