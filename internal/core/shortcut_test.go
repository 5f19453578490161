package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mvcom/internal/seobs"
)

// referenceSolve is SolveFrom with the chain always built before the
// bootstrap check, so every solve pays for set-up and draws from the
// seeded streams before trivial decides. The shortcut must be invisible
// in every output against it.
func referenceSolve(in Instance, cfg SEConfig, prevSel []bool) (Solution, []TracePoint, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, nil, err
	}
	r, err := newRun(&in, cfg.withDefaults())
	if err != nil {
		return Solution{}, nil, err
	}
	r.start()
	if sol, done := r.trivial(); done {
		return sol, []TracePoint{{Iteration: 0, Utility: sol.Utility}}, nil
	}
	if cfg.WarmStart && len(prevSel) > 0 {
		r.applyWarmStart(prevSel)
	}
	trace := r.loop(nil)
	sol, err := r.best()
	return sol, trace, err
}

// shortcutBase returns an n-shard instance whose deadline leaves about a
// fifth of the shards (n > 1) as stragglers, so Arrived and the shard
// set differ.
func shortcutBase(n int) Instance {
	in := testInstance(int64(40+n), n, 1.5, 1, 0)
	lat := append([]float64(nil), in.Latencies...)
	sort.Float64s(lat)
	in.DDL = lat[len(lat)-1-len(lat)/5]
	return in
}

// TestSolveShortcutEquivalence checks the bootstrap shortcut at its
// boundary: capacity equal to the arrived load and one below it, Nmin
// equal to the arrived count and one above it, at 1, 8 and 64 shards.
// Solve and SolveFrom (warm start on and off, empty and non-empty
// previous selection) must match referenceSolve bit for bit, and where
// the shortcut applies, also the born-converged Engine.
func TestSolveShortcutEquivalence(t *testing.T) {
	for _, shards := range []int{1, 8, 64} {
		base := shortcutBase(shards)
		arrived := len(base.Arrived())
		load := base.TotalArrivedSize()
		prev := Solution{Selected: make([]bool, shards)}
		for i := 0; i < shards; i += 2 {
			prev.Selected[i] = true
		}
		for _, capacity := range []int{load, load - 1} {
			for _, nmin := range []int{arrived, arrived + 1} {
				in := base.Clone()
				in.Capacity, in.Nmin = capacity, nmin
				trivial := capacity == load && nmin == arrived
				for _, warm := range []bool{false, true} {
					cfg := SEConfig{Seed: 9, Gamma: 3, Workers: 1, MaxIters: 256, ConvergenceWindow: 128, WarmStart: warm}
					se := NewSE(cfg)
					for _, p := range []Solution{{}, prev} {
						name := fmt.Sprintf("shards=%d/cap=%d/nmin=%d/warm=%v/prev=%d", shards, capacity, nmin, warm, len(p.Selected))
						want, wantTrace, wantErr := referenceSolve(in, cfg, p.Selected)
						got, gotTrace, gotErr := se.SolveFrom(in, p)
						compareSolves(t, name+"/SolveFrom", got, gotTrace, gotErr, want, wantTrace, wantErr)
						if len(p.Selected) == 0 {
							got, gotTrace, gotErr = se.Solve(in)
							compareSolves(t, name+"/Solve", got, gotTrace, gotErr, want, wantTrace, wantErr)
						}
						if gotErr == nil && (got.Iterations == 0) != trivial {
							t.Errorf("%s: shortcut taken = %v, want %v", name, got.Iterations == 0, trivial)
						}
					}
					e, err := NewEngine(in, cfg)
					if err != nil {
						if trivial {
							t.Fatalf("shards=%d: NewEngine: %v", shards, err)
						}
						continue
					}
					if e.Converged() != trivial {
						t.Fatalf("shards=%d cap=%d nmin=%d: engine converged = %v, want %v", shards, capacity, nmin, e.Converged(), trivial)
					}
					if trivial {
						best, err := e.Best()
						got, _, _ := se.Solve(in)
						if err != nil || !reflect.DeepEqual(best, got) {
							t.Fatalf("shards=%d: engine best %+v (%v), solve %+v", shards, best, err, got)
						}
					}
				}
			}
		}
	}
}

func compareSolves(t *testing.T, name string, got Solution, gotTrace []TracePoint, gotErr error,
	want Solution, wantTrace []TracePoint, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err %v, want %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: solution %+v, want %+v", name, got, want)
	}
	if !reflect.DeepEqual(gotTrace, wantTrace) {
		t.Fatalf("%s: trace %v, want %v", name, gotTrace, wantTrace)
	}
}

// trivialSolveAllocs bounds the allocations of a solve the bootstrap
// shortcut answers: the instance, the candidate list, the run header,
// the selection and the one-point trace.
const trivialSolveAllocs = 5

// TestTrivialSolveAllocsFixed pins that a trivially answered SolveFrom
// builds no part of the chain: its allocation count is small and the
// same for every shard count K and explorer count Γ.
func TestTrivialSolveAllocsFixed(t *testing.T) {
	var counts []float64
	for _, k := range []int{8, 64} {
		in := testInstance(int64(k), k, 1.5, 1, 1)
		prev := Solution{Selected: make([]bool, k)}
		prev.Selected[0] = true
		for _, gamma := range []int{1, 16} {
			se := NewSE(SEConfig{Seed: 1, Gamma: gamma, WarmStart: true})
			allocs := testing.AllocsPerRun(20, func() {
				sol, _, err := se.SolveFrom(in, prev)
				if err != nil || sol.Count != k {
					t.Fatalf("K=%d Γ=%d: trivial solve %+v, %v", k, gamma, sol, err)
				}
			})
			if allocs > trivialSolveAllocs {
				t.Errorf("K=%d Γ=%d: %v allocs per trivial solve, want <= %d", k, gamma, allocs, trivialSolveAllocs)
			}
			counts = append(counts, allocs)
		}
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("trivial solve allocations vary with K or Γ: %v", counts)
		}
	}
}

// TestTrivialSolveBindsDiag checks the diagnostics of a solve the
// shortcut answers: bound to that solve's arrived candidates, with the
// returned utility recorded at round 0.
func TestTrivialSolveBindsDiag(t *testing.T) {
	in := shortcutBase(8)
	in.Capacity = in.TotalArrivedSize()
	arrived := len(in.Arrived())
	diag := seobs.New(seobs.Config{})
	sol, _, err := NewSE(SEConfig{Seed: 2, Gamma: 3, Diag: diag}).Solve(in)
	if err != nil || sol.Count != arrived {
		t.Fatalf("trivial solve %+v, %v", sol, err)
	}
	snap := diag.Snapshot()
	if snap.K != arrived || snap.Gamma != 3 || !snap.HaveBest || snap.BestUtility != sol.Utility {
		t.Fatalf("diag snapshot K=%d Γ=%d best=%v/%v, want K=%d Γ=3 best=%v",
			snap.K, snap.Gamma, snap.BestUtility, snap.HaveBest, arrived, sol.Utility)
	}
	if dg := diag.Digest(); dg.Rounds != 0 || dg.Improvements != 1 || dg.TimeToEpsRounds != 0 {
		t.Fatalf("diag digest %+v", dg)
	}
}
