// Package core implements the paper's primary contribution: the MVCom
// utility-maximization problem (Section III) and the online distributed
// Stochastic-Exploration algorithm that solves it (Section IV), together
// with the theoretical results of Sections IV-E/F and V (time
// reversibility, mixing-time bounds, failure perturbation bounds).
//
// One epoch's input is an Instance: per-shard transaction counts s_i,
// two-phase latencies l_i, the deadline t_j, the throughput weight α, the
// final-block capacity Ĉ, and the minimum committee count Nmin. A
// Solution is a subset of shards; its utility is
//
//	U = Σ_i x_i (α·s_i − (t_j − l_i))
//
// subject to Σ x_i ≥ Nmin and Σ x_i s_i ≤ Ĉ. The problem is NP-hard by
// reduction from 0/1 knapsack (Lemma 1).
package core

import (
	"errors"
	"fmt"
	"math"
)

// Errors reported by instance validation and the solvers.
var (
	ErrNoShards       = errors.New("core: instance has no shards")
	ErrLengthMismatch = errors.New("core: sizes and latencies differ in length")
	ErrBadAlpha       = errors.New("core: alpha must be positive")
	ErrBadCapacity    = errors.New("core: capacity must be positive")
	ErrBadNmin        = errors.New("core: nmin out of range")
	ErrNoCandidates   = errors.New("core: no shard arrived before the deadline")
	ErrInfeasible     = errors.New("core: no feasible solution satisfies Nmin and capacity")
)

// Instance is one epoch's scheduling input.
type Instance struct {
	// Sizes holds s_i, the number of transactions packaged in shard i.
	Sizes []int
	// Latencies holds l_i, the two-phase latency of committee i in
	// seconds (formation + intra-committee consensus).
	Latencies []float64
	// DDL is the deadline t_j in seconds. If zero, it defaults to
	// max_i l_i (the paper's t_j = max_{k∈I_j} l_k).
	DDL float64
	// Alpha is the weight α of the throughput term.
	Alpha float64
	// Capacity is Ĉ, the transaction capacity of the final block.
	Capacity int
	// Nmin is the minimum number of committees that must be permitted.
	Nmin int
}

// Validate checks the instance and fills the default deadline. It returns
// the first violated-constraint error.
func (in *Instance) Validate() error {
	if len(in.Sizes) == 0 {
		return ErrNoShards
	}
	if len(in.Sizes) != len(in.Latencies) {
		return ErrLengthMismatch
	}
	if in.Alpha <= 0 {
		return ErrBadAlpha
	}
	if in.Capacity <= 0 {
		return ErrBadCapacity
	}
	if in.Nmin < 0 || in.Nmin > len(in.Sizes) {
		return ErrBadNmin
	}
	for i, s := range in.Sizes {
		if s < 0 {
			return fmt.Errorf("core: shard %d has negative size %d", i, s)
		}
		if in.Latencies[i] < 0 {
			return fmt.Errorf("core: shard %d has negative latency %v", i, in.Latencies[i])
		}
		if math.IsNaN(in.Latencies[i]) || math.IsInf(in.Latencies[i], 0) {
			return fmt.Errorf("core: shard %d has non-finite latency", i)
		}
	}
	if in.DDL == 0 {
		in.DDL = in.MaxLatency()
	}
	if in.DDL < 0 || math.IsNaN(in.DDL) {
		return fmt.Errorf("core: invalid deadline %v", in.DDL)
	}
	return nil
}

// MaxLatency returns max_i l_i, the paper's default deadline.
func (in *Instance) MaxLatency() float64 {
	var m float64
	for _, l := range in.Latencies {
		if l > m {
			m = l
		}
	}
	return m
}

// NumShards returns |I_j|.
func (in *Instance) NumShards() int { return len(in.Sizes) }

// Age returns the cumulative-age term t_j − l_i of shard i if it were
// permitted (equation (1) with x_i = 1). A negative age marks a straggler
// that missed the deadline.
func (in *Instance) Age(i int) float64 { return in.DDL - in.Latencies[i] }

// Value returns the per-shard utility contribution α·s_i − (t_j − l_i).
func (in *Instance) Value(i int) float64 {
	return in.Alpha*float64(in.Sizes[i]) - in.Age(i)
}

// Arrived returns the indices of shards whose two-phase latency does not
// exceed the deadline — the candidates the final committee may permit.
func (in *Instance) Arrived() []int {
	n := 0
	for _, l := range in.Latencies {
		if l <= in.DDL {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i, l := range in.Latencies {
		if l <= in.DDL {
			out = append(out, i)
		}
	}
	return out
}

// Utility evaluates objective (2) for a selection vector. Selections of
// stragglers contribute their (negative-age) value as written; feasibility
// is checked separately by Feasible.
func (in *Instance) Utility(selected []bool) float64 {
	var u float64
	for i, sel := range selected {
		if sel {
			u += in.Value(i)
		}
	}
	return u
}

// Load returns Σ x_i s_i for a selection vector.
func (in *Instance) Load(selected []bool) int {
	total := 0
	for i, sel := range selected {
		if sel {
			total += in.Sizes[i]
		}
	}
	return total
}

// Count returns Σ x_i.
func (in *Instance) Count(selected []bool) int {
	n := 0
	for _, sel := range selected {
		if sel {
			n++
		}
	}
	return n
}

// Feasible reports whether a selection satisfies constraints (3) and (4)
// and selects only arrived shards.
func (in *Instance) Feasible(selected []bool) bool {
	if len(selected) != len(in.Sizes) {
		return false
	}
	count, load := 0, 0
	for i, sel := range selected {
		if !sel {
			continue
		}
		if in.Latencies[i] > in.DDL {
			return false
		}
		count++
		load += in.Sizes[i]
	}
	return count >= in.Nmin && load <= in.Capacity
}

// TotalArrivedSize returns Σ s_i over arrived shards — the quantity
// compared against Ĉ in Alg. 1's bootstrap condition.
func (in *Instance) TotalArrivedSize() int {
	total := 0
	for i, l := range in.Latencies {
		if l <= in.DDL {
			total += in.Sizes[i]
		}
	}
	return total
}

// Clone deep-copies the instance.
func (in *Instance) Clone() Instance {
	return Instance{
		Sizes:     append([]int(nil), in.Sizes...),
		Latencies: append([]float64(nil), in.Latencies...),
		DDL:       in.DDL,
		Alpha:     in.Alpha,
		Capacity:  in.Capacity,
		Nmin:      in.Nmin,
	}
}

// Solution is a selection of shards with its cached objective terms.
type Solution struct {
	// Selected is the x vector over the instance's shard indices.
	Selected []bool
	// Utility is objective (2) for Selected.
	Utility float64
	// Load is Σ x_i s_i.
	Load int
	// Count is Σ x_i.
	Count int
	// Iterations is how many Markov transitions (or solver iterations)
	// were executed before convergence.
	Iterations int
}

// NewSolution evaluates a selection against an instance.
func NewSolution(in *Instance, selected []bool) Solution {
	sel := append([]bool(nil), selected...)
	return Solution{
		Selected: sel,
		Utility:  in.Utility(sel),
		Load:     in.Load(sel),
		Count:    in.Count(sel),
	}
}

// Indices returns the selected shard indices in ascending order.
func (s Solution) Indices() []int {
	var out []int
	for i, sel := range s.Selected {
		if sel {
			out = append(out, i)
		}
	}
	return out
}

// ValuableDegree computes the paper's efficacy metric
// Σ_i x_i · s_i / Π_i, where Π_i = t_j − l_i is the cumulative age of a
// permitted shard. Ages below ageFloor seconds are clamped to ageFloor so
// the deadline-defining committee (age 0) does not divide by zero; pass 0
// to use the default floor of 1 second.
func (s Solution) ValuableDegree(in *Instance, ageFloor float64) float64 {
	if ageFloor <= 0 {
		ageFloor = 1
	}
	var vd float64
	for i, sel := range s.Selected {
		if !sel {
			continue
		}
		age := in.Age(i)
		if age < ageFloor {
			age = ageFloor
		}
		vd += float64(in.Sizes[i]) / age
	}
	return vd
}
