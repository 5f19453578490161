package core

// Engine is the stepping interface to the SE Markov chain. Where Solve
// runs the chain to convergence in one call, an Engine advances one
// transition round at a time, so callers can interleave exploration with
// external coordination — the distributed runtime drives one Engine per
// worker machine and exchanges only best-utility reports and dynamic
// events, exactly the "limited state information" execution model of
// Section IV-D.
type Engine struct {
	r       *run
	trivial *Solution
	iter    int
}

// NewEngine validates the instance and prepares the chain. If the
// bootstrap condition of Alg. 1 line 1 is not met (everything fits the
// final block), the engine is born converged with the trivial all-arrived
// solution.
func NewEngine(in Instance, cfg SEConfig) (*Engine, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r, err := newRun(&in, cfg)
	if err != nil {
		return nil, err
	}
	r.start()
	e := &Engine{r: r}
	if sol, done := r.trivial(); done {
		e.trivial = &sol
	}
	return e, nil
}

// Converged reports whether the engine was born converged (trivial case).
func (e *Engine) Converged() bool { return e.trivial != nil }

// Step advances every explorer by one transition round and reports whether
// the global best improved. Stepping a trivially converged engine is a
// no-op returning false.
func (e *Engine) Step() bool { return e.StepN(1) }

// StepN advances every explorer by n transition rounds — concurrently
// across explorers when the configuration allows — and reports whether
// the global best improved anywhere in the window. Batching rounds
// through StepN is what lets a driver keep the parallel kernel busy
// between coordination points instead of paying a goroutine fan-out per
// round.
func (e *Engine) StepN(n int) bool {
	if e.trivial != nil || n <= 0 {
		return false
	}
	a := e.iter
	e.iter += n
	e.r.stepSegment(a, e.iter)
	var sinceImprove int
	_, _, improved := e.r.mergeSegment(a, e.iter, -1, nil, &sinceImprove, false)
	e.r.iterations = e.iter
	return improved
}

// Iterations returns how many rounds have been stepped.
func (e *Engine) Iterations() int { return e.iter }

// BestUtility returns the best utility observed so far (the trivial
// solution's utility when born converged; -Inf before any feasible
// solution exists). It reads the atomically published best snapshot, so
// it is safe to call from any goroutine.
func (e *Engine) BestUtility() float64 {
	if e.trivial != nil {
		return e.trivial.Utility
	}
	return e.r.bestObserved()
}

// BestCardinality returns the solution-thread cardinality n of the best
// solution observed so far (0 before any feasible solution exists). Like
// BestUtility it reads the published snapshot, so it is safe from any
// goroutine; the distributed runtime threads it through progress and
// result reports.
func (e *Engine) BestCardinality() int {
	if e.trivial != nil {
		return e.trivial.Count
	}
	if s := e.r.snap.Load(); s != nil {
		return s.n
	}
	return 0
}

// Best returns the best feasible solution found so far.
func (e *Engine) Best() (Solution, error) {
	if e.trivial != nil {
		return *e.trivial, nil
	}
	return e.r.best()
}

// ApplyEvent injects a dynamic join/leave event into the running chain.
// It must not be called concurrently with StepN; like the batched solver
// loops, events belong to synchronization points.
func (e *Engine) ApplyEvent(ev Event) error {
	if e.trivial != nil {
		// The candidate set changed: the trivial shortcut no longer
		// holds; fall back to the live chain.
		e.trivial = nil
	}
	return e.r.applyEvent(ev)
}

// Instance returns a snapshot of the engine's current instance (including
// shards added by join events).
func (e *Engine) Instance() Instance { return e.r.in.Clone() }
