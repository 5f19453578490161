package core

import (
	"sort"

	"mvcom/internal/seobs"
)

// WarmSolver is a Solver that can seed its search from a previous
// epoch's solution. The previous selection is interpreted over the new
// instance's shard indices (the caller is responsible for mapping
// committee identities between epochs); entries that reference departed
// or out-of-range shards are trimmed during projection.
type WarmSolver interface {
	Solver
	// SolveFrom solves in, optionally seeding the search from prev.
	// Implementations must treat prev as read-only and must fall back to
	// a cold start when prev carries no usable information.
	SolveFrom(in Instance, prev Solution) (Solution, []TracePoint, error)
}

var _ WarmSolver = (*SE)(nil)

// SolveFrom runs the SE algorithm seeded from a previous epoch's
// solution. With SEConfig.WarmStart unset (or an empty previous
// selection) it is exactly Solve: same RNG stream, same trajectory, same
// answer. With WarmStart set, every explorer's cardinality-n thread is
// re-seeded from the projection of prev.Selected onto the surviving
// candidate set before the first transition round: the projection drops
// departed shards, trims the lowest-value survivors while over capacity
// (the applyLeave trim), derives each cardinality by shrinking or
// growing the projected set in value order, and re-offers the result
// through the usual local-best/full-selection path. The warm seed is
// recorded as a "warm-start" restart event on the attached diagnostics
// so the time-to-ε estimator measures re-convergence from the seeded
// level, mirroring how join/leave events restart it.
func (se *SE) SolveFrom(in Instance, prev Solution) (Solution, []TracePoint, error) {
	return se.solve(in, prev.Selected)
}

// projectSelection maps a previous selection (instance index space) onto
// the current candidate positions, dropping shards that are no longer
// candidates and then trimming the lowest-value survivors while the
// projected load exceeds capacity — the same "trim the departed state
// space" rule applyLeave applies, extended to the capacity constraint a
// re-featured epoch may have tightened. The result is sorted by
// descending value so prefixes are the natural per-cardinality seeds.
func (r *run) projectSelection(prevSel []bool) []int {
	base := make([]int, 0, len(r.candidates))
	load := 0
	for pos, idx := range r.candidates {
		if idx < len(prevSel) && prevSel[idx] {
			base = append(base, pos)
			load += r.sizes[pos]
		}
	}
	sort.Slice(base, func(i, j int) bool { return r.vals[base[i]] > r.vals[base[j]] })
	for load > r.in.Capacity && len(base) > 0 {
		last := base[len(base)-1]
		load -= r.sizes[last]
		base = base[:len(base)-1]
	}
	return base
}

// applyWarmStart re-seeds every explorer's solution threads from the
// projected previous selection. Runs once before the first segment, so
// no synchronization is needed. Threads whose cardinality cannot be
// seeded feasibly keep their random initialization (or stay inactive);
// a seeded thread that was inactive is re-activated — the previous
// epoch's solution is a feasibility witness the random initializer may
// have missed.
func (r *run) applyWarmStart(prevSel []bool) {
	base := r.projectSelection(prevSel)
	if len(base) == 0 {
		return
	}
	// rest holds the candidate positions outside the projected set, best
	// value first, for growing seeds past the projected cardinality.
	inBase := make([]bool, len(r.candidates))
	baseLoad := 0
	for _, pos := range base {
		inBase[pos] = true
		baseLoad += r.sizes[pos]
	}
	rest := make([]int, 0, len(r.candidates)-len(base))
	for pos := range r.candidates {
		if !inBase[pos] {
			rest = append(rest, pos)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return r.vals[rest[i]] > r.vals[rest[j]] })

	pick := make([]int, 0, len(r.candidates))
	for _, ex := range r.explorers {
		for _, th := range ex.threads {
			pick = pick[:0]
			load := 0
			// Shrink: the n best projected positions (prefix load can
			// never exceed the trimmed base load, so this is always
			// feasible). Grow: top up with the best-valued outside
			// positions that still fit.
			for _, pos := range base {
				if len(pick) == th.n {
					break
				}
				pick = append(pick, pos)
				load += r.sizes[pos]
			}
			for _, pos := range rest {
				if len(pick) == th.n {
					break
				}
				if load+r.sizes[pos] > r.in.Capacity {
					continue
				}
				pick = append(pick, pos)
				load += r.sizes[pos]
			}
			if len(pick) != th.n {
				continue
			}
			th.adopt(r, pick)
			th.active = true
			ex.offer(th, 0)
		}
		ex.rearm()
		r.adoptLocal(ex)
	}
	r.offerFullIfFeasible()
	r.publishBest()
	r.rebindDiag(0, seobs.EventWarmStart, -1)
}
