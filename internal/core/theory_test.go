package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDetailedBalanceHoldsExactly(t *testing.T) {
	// Lemma 3: p*_f · q_{f,f'} = p*_{f'} · q_{f',f} for every adjacent
	// pair. In log space the residual must be identically zero for any
	// (β, τ, U_f, U_f').
	f := func(rawBeta, rawTau, uF, uFp float64) bool {
		beta := math.Abs(math.Mod(rawBeta, 100)) + 0.01
		tau := math.Mod(rawTau, 50)
		if math.IsNaN(uF) || math.IsInf(uF, 0) || math.IsNaN(uFp) || math.IsInf(uFp, 0) {
			return true
		}
		uF = math.Mod(uF, 1e6)
		uFp = math.Mod(uFp, 1e6)
		res := DetailedBalanceResidual(beta, tau, uF, uFp)
		return math.Abs(res) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLogTransitionRateDirection(t *testing.T) {
	// Moving toward a better solution must be faster (equation (7)).
	up := LogTransitionRate(2, 0, 100, 200)
	down := LogTransitionRate(2, 0, 200, 100)
	if up <= down {
		t.Fatalf("uphill rate %v not above downhill %v", up, down)
	}
	// τ only shifts both by a constant.
	upTau := LogTransitionRate(2, 5, 100, 200)
	if math.Abs((up-upTau)-5) > 1e-12 {
		t.Fatalf("tau shift wrong: %v vs %v", up, upTau)
	}
}

func TestOptimalityLossBound(t *testing.T) {
	got, err := OptimalityLossBound(2, 500)
	if err != nil {
		t.Fatal(err)
	}
	want := 500 * math.Ln2 / 2
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("loss %v, want %v", got, want)
	}
	// Larger β → smaller loss (Remark 2).
	tight, err := OptimalityLossBound(10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tight >= got {
		t.Fatal("larger beta should shrink the loss bound")
	}
	if _, err := OptimalityLossBound(0, 5); err == nil {
		t.Fatal("beta=0 accepted")
	}
	if _, err := OptimalityLossBound(1, -1); err == nil {
		t.Fatal("negative shards accepted")
	}
}

func TestMixingTimeBoundsOrdering(t *testing.T) {
	b, err := MixingTimeBounds(50, 2, 0, 1000, 900, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if b.LogLower >= b.LogUpper {
		t.Fatalf("lower bound above upper: %v vs %v", b.LogLower, b.LogUpper)
	}
	if !math.IsInf(b.Upper, 1) && b.Upper < b.Lower {
		t.Fatal("materialized bounds out of order")
	}
}

func TestMixingTimeBoundsScaleWithBeta(t *testing.T) {
	// Remark 2: larger β inflates the upper bound (slower convergence).
	small, err := MixingTimeBounds(50, 1, 0, 1000, 990, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MixingTimeBounds(50, 5, 0, 1000, 990, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if large.LogUpper <= small.LogUpper {
		t.Fatalf("upper bound should grow with beta: %v vs %v", small.LogUpper, large.LogUpper)
	}
}

func TestMixingTimeBoundsScaleWithEps(t *testing.T) {
	loose, err := MixingTimeBounds(50, 2, 0, 100, 90, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := MixingTimeBounds(50, 2, 0, 100, 90, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if tight.LogUpper <= loose.LogUpper {
		t.Fatal("smaller eps should need more mixing time")
	}
}

func TestMixingTimeBoundsHugeUtilitySpreadStaysFinite(t *testing.T) {
	// The raw Theorem 1 upper bound contains exp(3β(Umax−Umin)/2): with a
	// spread of 10⁵ this overflows float64, but the log form must remain
	// finite and usable.
	b, err := MixingTimeBounds(500, 2, 0, 5e5, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(b.LogUpper, 0) || math.IsNaN(b.LogUpper) {
		t.Fatalf("log upper bound not finite: %v", b.LogUpper)
	}
	if !math.IsInf(b.Upper, 1) {
		t.Fatal("materialized upper bound should overflow to +Inf here")
	}
}

func TestMixingTimeBoundsArgErrors(t *testing.T) {
	cases := []struct {
		n                          int
		beta, tau, umax, umin, eps float64
	}{
		{1, 2, 0, 10, 0, 0.01},  // too few shards
		{10, 0, 0, 10, 0, 0.01}, // bad beta
		{10, 2, 0, 10, 0, 0},    // bad eps
		{10, 2, 0, 10, 0, 0.5},  // eps too large
		{10, 2, 0, 0, 10, 0.01}, // umax < umin
	}
	for i, c := range cases {
		if _, err := MixingTimeBounds(c.n, c.beta, c.tau, c.umax, c.umin, c.eps); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSolutionSpaceSize(t *testing.T) {
	f, g := SolutionSpaceSize(50)
	if f != 50 || g != 49 {
		t.Fatalf("space sizes %v %v", f, g)
	}
}

func TestPerturbationBound(t *testing.T) {
	p := PerturbationBound(1234.5)
	if p.TVDistance != 0.5 {
		t.Fatalf("TV %v, want 1/2 (Lemma 4)", p.TVDistance)
	}
	if p.UtilityBound != 1234.5 {
		t.Fatalf("utility bound %v", p.UtilityBound)
	}
}

func TestStationaryDistribution(t *testing.T) {
	p, err := StationaryDistribution(2, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform utilities should give uniform distribution: %v", p)
		}
	}
	// Higher utility → higher probability, ratio exp(βΔU).
	p, err = StationaryDistribution(2, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[1]/p[0]-math.Exp(2)) > 1e-9 {
		t.Fatalf("Gibbs ratio wrong: %v", p[1]/p[0])
	}
	if _, err := StationaryDistribution(2, nil); err == nil {
		t.Fatal("empty utilities accepted")
	}
	if _, err := StationaryDistribution(0, []float64{1}); err == nil {
		t.Fatal("beta=0 accepted")
	}
}

func TestStationaryDistributionNormalizedProperty(t *testing.T) {
	f := func(raw []float64, rawBeta float64) bool {
		if len(raw) == 0 {
			return true
		}
		beta := math.Abs(math.Mod(rawBeta, 10)) + 0.1
		us := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			us[i] = math.Mod(v, 1e5)
		}
		p, err := StationaryDistribution(beta, us)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalTVLemma4OnEnumeratedSpace(t *testing.T) {
	// Build a tiny solution space F = all subsets of 6 shards with i.i.d.
	// utilities, fail shard 0, and compare the trimmed stationary
	// distribution q* with the instantaneous distribution q̃ (the original
	// p* restricted to G). Lemma 4's derivation (law of large numbers over
	// i.i.d. utilities) gives d_TV → |F\G|/|F| = 1/2; with β→0 the weights
	// flatten and the identity is exact, so check β small → ≈ 1/2.
	const n = 6
	var utilG []float64 // utilities of solutions not containing shard 0
	var all []float64
	for mask := 0; mask < 1<<n; mask++ {
		u := 0.0
		for b := 0; b < n; b++ {
			if mask>>b&1 == 1 {
				u += float64((b * 37) % 11) // deterministic pseudo-i.i.d. values
			}
		}
		all = append(all, u)
		if mask&1 == 0 {
			utilG = append(utilG, u)
		}
	}
	beta := 1e-9 // flatten the Gibbs weights
	pAll, err := StationaryDistribution(beta, all)
	if err != nil {
		t.Fatal(err)
	}
	qStar, err := StationaryDistribution(beta, utilG)
	if err != nil {
		t.Fatal(err)
	}
	// q̃: original distribution restricted to G (not renormalized), per
	// equation (16).
	qTilde := make([]float64, 0, len(utilG))
	for mask := 0; mask < 1<<n; mask++ {
		if mask&1 == 0 {
			qTilde = append(qTilde, pAll[mask])
		}
	}
	// Pad q̃'s missing mass: d_TV computed over G only, following the
	// paper's ½Σ_{g∈G}|q*_g − q̃_g|.
	tv, err := EmpiricalTV(qStar, qTilde)
	if err != nil {
		t.Fatal(err)
	}
	// ½ Σ_{g∈G} |q*_g − q̃_g| = ½ Σ (q*_g − q̃_g) = ½(1 − ½) ... with flat
	// weights: q*_g = 1/32, q̃_g = 1/64, Σ diff = 1/2, tv = 1/4 over G
	// only; the paper's Lemma counts the vanished mass too, giving 1/2.
	vanished := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		if mask&1 == 1 {
			vanished += pAll[mask]
		}
	}
	total := tv + vanished/2
	if math.Abs(total-0.5) > 1e-6 {
		t.Fatalf("Lemma 4 TV distance %v, want 1/2", total)
	}
	if _, err := EmpiricalTV([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestChainIsIrreducibleEmpirically(t *testing.T) {
	// Lemma 2: within one cardinality class, every state must be
	// reachable. Run a long chain on a tiny instance and check that every
	// 2-subset of 4 candidates is visited.
	in := Instance{
		Sizes:     []int{10, 11, 12, 13},
		Latencies: []float64{700, 800, 900, 1000},
		Alpha:     1, // near-flat utilities keep the chain exploring
		Capacity:  1000,
		Nmin:      1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	run, err := newRun(&in, SEConfig{Seed: 3}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	run.start()
	ex := run.explorers[0]
	var th *thread
	for _, cand := range ex.threads {
		if cand.n == 2 {
			th = cand
		}
	}
	if th == nil {
		t.Fatal("no cardinality-2 thread")
	}
	visited := make(map[[2]int]bool)
	record := func() {
		var key [2]int
		k := 0
		for pos, sel := range th.selected {
			if sel {
				key[k] = pos
				k++
			}
		}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		visited[key] = true
	}
	record()
	for iter := 0; iter < 3000 && len(visited) < 6; iter++ {
		ex.step()
		record()
	}
	if len(visited) != 6 {
		t.Fatalf("visited only %d of 6 cardinality-2 states", len(visited))
	}
}

func TestStationaryFrequenciesMatchGibbs(t *testing.T) {
	// Time-reversibility end-to-end: the empirical state occupancy of one
	// cardinality thread must converge to the Gibbs distribution over its
	// states. Use a 2-of-3 space (3 states) with modest utilities.
	in := Instance{
		Sizes:     []int{10, 12, 14},
		Latencies: []float64{700, 800, 900},
		Alpha:     1,
		Capacity:  1000,
		Nmin:      1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	beta := 0.05 // gentle landscape so all states recur
	run, err := newRun(&in, SEConfig{Seed: 11, Beta: beta}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	run.start()
	ex := run.explorers[0]
	var th *thread
	for _, cand := range ex.threads {
		if cand.n == 2 {
			th = cand
		}
	}
	if th == nil {
		t.Fatal("no cardinality-2 thread")
	}
	// The three 2-subsets: {0,1}, {0,2}, {1,2} — identify by the missing
	// position.
	counts := make([]float64, 3)
	utils := make([]float64, 3)
	for missing := 0; missing < 3; missing++ {
		u := 0.0
		for pos := 0; pos < 3; pos++ {
			if pos != missing {
				u += in.Value(pos)
			}
		}
		utils[missing] = u
	}
	const iters = 60000
	for i := 0; i < iters; i++ {
		// Isolate the cardinality-2 chain: step only transitions of th by
		// directly emulating its dynamics (propose + always fire).
		ex.setTimer(th)
		if !th.proposalOK {
			continue
		}
		// Metropolis-style acceptance matching the race: the proposal
		// fires against the reverse move with probability
		// rate/(rate+revRate) = σ(βΔU) — equivalent stationary law.
		dU := th.dU
		pAccept := 1.0 / (1.0 + mathExpSafe(-beta*dU))
		if ex.rng.Float64() < pAccept {
			th.applySwap(run)
		}
		for pos := 0; pos < 3; pos++ {
			if !th.selected[pos] {
				counts[pos]++
			}
		}
	}
	p, err := StationaryDistribution(beta, utils)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		got := counts[i] / iters
		if math.Abs(got-p[i]) > 0.03 {
			t.Fatalf("state %d occupancy %.4f, Gibbs predicts %.4f", i, got, p[i])
		}
	}
}

func mathExpSafe(x float64) float64 {
	if x > 700 {
		return math.Inf(1)
	}
	if x < -700 {
		return 0
	}
	return math.Exp(x)
}
