package lp

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// buildRandomBounded constructs a random LP where every variable has finite
// two-sided bounds (the shape branch-and-bound tightens) and a known
// feasible point, so the optimum exists whenever the rows are satisfiable.
func buildRandomBounded(rng *rand.Rand) *Problem {
	n := 1 + rng.IntN(6)
	m := 1 + rng.IntN(8)
	p := NewProblem()
	point := make([]float64, n)
	for j := 0; j < n; j++ {
		point[j] = rng.Float64()*8 - 4
		p.AddVar(-5, 5, math.Round(rng.NormFloat64()*3), "v")
	}
	for i := 0; i < m; i++ {
		var terms []Term
		lhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				c := float64(rng.IntN(7) - 3)
				if c == 0 {
					continue
				}
				terms = append(terms, T(j, c))
				lhs += c * point[j]
			}
		}
		if len(terms) == 0 {
			continue
		}
		if rng.Float64() < 0.5 {
			p.AddRow(LE, lhs+rng.Float64()*4, terms...)
		} else {
			p.AddRow(GE, lhs-rng.Float64()*4, terms...)
		}
	}
	return p
}

// tightenRandom tightens one random variable bound the way branch-and-bound
// does (raise lo or cut hi by an integral step) and returns the variable.
func tightenRandom(p *Problem, rng *rand.Rand) int {
	v := rng.IntN(p.NumVars())
	lo, hi := p.Bounds(v)
	cut := float64(1 + rng.IntN(3))
	if rng.Float64() < 0.5 {
		p.SetBounds(v, lo+cut, hi)
	} else {
		p.SetBounds(v, lo, hi-cut)
	}
	return v
}

func solutionsAgree(a, b Solution, tol float64) bool {
	if a.Status != b.Status {
		return false
	}
	if a.Status != Optimal {
		return true
	}
	return math.Abs(a.Obj-b.Obj) <= tol
}

// TestSolveFromBasisMatchesCold: solve, snapshot, tighten one bound, and the
// warm restore must reach the same status and optimum as a cold solve.
func TestSolveFromBasisMatchesCold(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		p := buildRandomBounded(rng)
		var ws Workspace
		s0, err := p.SolveWS(&ws)
		if err != nil || s0.Status != Optimal {
			return true // nothing to warm-start from; not this test's concern
		}
		var b Basis
		if !ws.SaveBasis(&b) {
			t.Log("SaveBasis refused after an optimal solve")
			return false
		}
		for k := 0; k < 3; k++ { // a short dive: repeated tightenings
			tightenRandom(p, rng)
			warm, err := p.SolveFromBasis(&ws, &b)
			if err != nil {
				return true // stall: callers fall back to cold, allowed
			}
			cold, err := p.Solve()
			if err != nil {
				return false
			}
			if !solutionsAgree(warm, cold, 1e-6) {
				t.Logf("seed %d step %d: warm %+v cold %+v", seed, k, warm, cold)
				return false
			}
			if warm.Status != Optimal {
				return true
			}
			if !ws.SaveBasis(&b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveBoundMatchesCold: the hot continuation after one bound change
// must agree with a cold solve of the modified problem.
func TestResolveBoundMatchesCold(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 43))
		p := buildRandomBounded(rng)
		var ws Workspace
		s0, err := p.SolveWS(&ws)
		if err != nil || s0.Status != Optimal {
			return true
		}
		for k := 0; k < 3; k++ { // chain hot resolves like a dive does
			v := tightenRandom(p, rng)
			lo, hi := p.Bounds(v)
			warm, err := p.ResolveBound(&ws, v, lo, hi)
			if err != nil {
				return true // stall/mismatch: cold fallback territory
			}
			cold, err := p.Solve()
			if err != nil {
				return false
			}
			if !solutionsAgree(warm, cold, 1e-6) {
				t.Logf("seed %d step %d: warm %+v cold %+v", seed, k, warm, cold)
				return false
			}
			if warm.Status != Optimal {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveBoundEmptyBox: a lo > hi child box must come back Infeasible.
func TestResolveBoundEmptyBox(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, 1, "x")
	p.AddRow(GE, 1, T(x, 1))
	var ws Workspace
	if _, err := p.SolveWS(&ws); err != nil {
		t.Fatal(err)
	}
	s, err := p.ResolveBound(&ws, x, 3, 2)
	if err != nil || s.Status != Infeasible {
		t.Fatalf("s=%+v err=%v, want Infeasible", s, err)
	}
}

// TestResolveBoundDetectsInfeasibleChild: tightening past the rows must
// report Infeasible, matching the cold solve.
func TestResolveBoundDetectsInfeasibleChild(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 10, 1, "x")
	p.AddRow(LE, 4, T(x, 1)) // x ≤ 4
	var ws Workspace
	if _, err := p.SolveWS(&ws); err != nil {
		t.Fatal(err)
	}
	p.SetBounds(x, 6, 10) // child forces x ≥ 6: empty against the row
	s, err := p.ResolveBound(&ws, x, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want Infeasible", s.Status)
	}
}

// TestResolveBoundRequiresLiveState: a fresh workspace must refuse.
func TestResolveBoundRequiresLiveState(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, 1, "x")
	var ws Workspace
	if _, err := p.ResolveBound(&ws, x, 0, 3); err != ErrNotWarm {
		t.Fatalf("err = %v, want ErrNotWarm", err)
	}
}

// TestSaveBasisRequiresSolvedState documents the false return.
func TestSaveBasisRequiresSolvedState(t *testing.T) {
	var ws Workspace
	var b Basis
	if ws.SaveBasis(&b) {
		t.Fatal("SaveBasis on a fresh workspace must report false")
	}
}

// TestSolveFromBasisMismatch: snapshots from a different problem shape must
// be rejected, not mis-solved.
func TestSolveFromBasisMismatch(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, 1, "x")
	p.AddRow(GE, 1, T(x, 1))
	var ws Workspace
	if _, err := p.SolveWS(&ws); err != nil {
		t.Fatal(err)
	}
	var b Basis
	if !ws.SaveBasis(&b) {
		t.Fatal("SaveBasis failed")
	}
	q := NewProblem()
	q.AddVar(0, 5, 1, "x")
	q.AddVar(0, 5, 1, "y")
	if _, err := q.SolveFromBasis(&ws, &b); err != ErrBasisMismatch {
		t.Fatalf("err = %v, want ErrBasisMismatch", err)
	}
	if _, err := q.SolveFromBasis(&ws, nil); err != ErrBasisMismatch {
		t.Fatalf("nil basis: err = %v, want ErrBasisMismatch", err)
	}
}

// TestSolveFromBasisAfterOtherProblem: a workspace whose last solve was a
// different problem of the same shape — another Problem, or the same one
// Reset and rebuilt — holds a factorization of another matrix. The restore
// must notice, rebuild, and still match the cold solve.
func TestSolveFromBasisAfterOtherProblem(t *testing.T) {
	build := func(p *Problem, rhs float64) {
		p.Reset()
		x := p.AddVar(0, 10, -1, "x")
		y := p.AddVar(0, 10, -2, "y")
		p.AddRow(LE, rhs, T(x, 1), T(y, 1))
		p.AddRow(LE, rhs-2, T(y, 1), T(x, -1))
	}
	p, q := NewProblem(), NewProblem()
	build(p, 8)
	var ws Workspace
	if _, err := p.SolveWS(&ws); err != nil {
		t.Fatal(err)
	}
	var b Basis
	if !ws.SaveBasis(&b) {
		t.Fatal("SaveBasis failed")
	}
	for _, c := range []struct {
		name  string
		other *Problem
	}{{"other problem", q}, {"same problem rebuilt", p}} {
		build(c.other, 5)
		if _, err := c.other.SolveWS(&ws); err != nil {
			t.Fatal(err)
		}
		if c.other == p {
			build(p, 8)
		}
		rebuilds := ws.Rebuilds
		warm, err := p.SolveFromBasis(&ws, &b)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsAgree(warm, cold, 1e-9) || ws.Rebuilds != rebuilds+1 {
			t.Fatalf("%s: restore %+v (rebuilds %d→%d), cold %+v", c.name, warm, rebuilds, ws.Rebuilds, cold)
		}
	}
}

// TestSolveFromBasisKeepsBasicArtificial: a duplicated equality row leaves
// an artificial basic at zero in the optimal basis. Restoring that snapshot
// — by exchange on the loaded factorization and by rebuild on a fresh
// workspace — must keep the artificial basic and match the cold solve.
func TestSolveFromBasisKeepsBasicArtificial(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 10, 1, "x")
	y := p.AddVar(0, 10, 2, "y")
	p.AddRow(EQ, 4, T(x, 1), T(y, 1))
	p.AddRow(EQ, 4, T(x, 1), T(y, 1))
	var ws Workspace
	if s, err := p.SolveWS(&ws); err != nil || s.Status != Optimal {
		t.Fatalf("cold solve: %+v, %v", s, err)
	}
	var b Basis
	if !ws.SaveBasis(&b) {
		t.Fatal("SaveBasis failed")
	}
	artificial := false
	for _, c := range b.basis {
		artificial = artificial || c >= ws.artStart
	}
	if !artificial {
		t.Fatal("optimal basis holds no artificial: the case is not exercised")
	}
	p.SetBounds(x, 0, 3)
	cold, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var fresh Workspace
	for _, c := range []struct {
		name     string
		ws       *Workspace
		rebuilds int
	}{{"exchange", &ws, 0}, {"rebuild", &fresh, 1}} {
		warm, err := p.SolveFromBasis(c.ws, &b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !solutionsAgree(warm, cold, 1e-9) || c.ws.Rebuilds != c.rebuilds {
			t.Fatalf("%s: restore %+v (%d rebuilds), cold %+v", c.name, warm, c.ws.Rebuilds, cold)
		}
	}
}

// TestSolveFromBasisRefreshesLongFactorization: once the loaded
// factorization has run more than refreshAfter(m) pivots since it was built
// raw, the restore refactorizes afresh instead of exchanging on it, and
// the next restore exchanges on the fresh factorization again.
func TestSolveFromBasisRefreshesLongFactorization(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 53))
	for tries := 0; tries < 100; tries++ {
		p := buildRandomBounded(rng)
		var ws Workspace
		if s, err := p.SolveWS(&ws); err != nil || s.Status != Optimal || ws.pivots == 0 {
			continue // the cold solve must have counted its pivots
		}
		var b Basis
		if !ws.SaveBasis(&b) {
			t.Fatal("SaveBasis refused after optimal solve")
		}
		ws.pivots = refreshAfter(ws.m) + 1
		tightenRandom(p, rng)
		warm, err := p.SolveFromBasis(&ws, &b)
		if err != nil {
			continue
		}
		cold, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsAgree(warm, cold, 1e-6) || ws.Rebuilds != 1 || ws.pivots > refreshAfter(ws.m) {
			t.Fatalf("refresh restore %+v (rebuilds %d, pivots %d), cold %+v", warm, ws.Rebuilds, ws.pivots, cold)
		}
		if _, err := p.SolveFromBasis(&ws, &b); err != nil {
			t.Fatal(err)
		}
		if ws.Rebuilds != 1 {
			t.Fatalf("restore after a refresh rebuilt again: %d rebuilds", ws.Rebuilds)
		}
		return
	}
	t.Fatal("no random problem exercised the refresh")
}

// exchangePivots counts the snapshot columns that are not basic in ws: the
// pivots an exchange restore of b on ws needs.
func exchangePivots(ws *Workspace, b *Basis) int {
	k := 0
	for _, c := range b.basis {
		if !ws.inBasis[c] {
			k++
		}
	}
	return k
}

// TestWarmSolveZeroAllocs: the warm-restart cycle (snapshot, hot resolves
// that move the basis, restore by column exchange, then a restore that must
// rebuild because another problem's solve replaced the loaded
// factorization) must run entirely out of retained storage.
func TestWarmSolveZeroAllocs(t *testing.T) {
	build := func(shift float64) *Problem {
		p := NewProblem()
		n := 8
		for v := 0; v < n; v++ {
			p.AddVar(-50, 50, 1, "x")
		}
		for v := 0; v < n-1; v++ {
			p.AddRow(LE, float64(5*v-20)+shift, T(v, 1), T(v+1, -1))
			p.AddRow(LE, float64(30-v), T(v+1, 1), T(v, -1))
		}
		return p
	}
	p, q := build(0), build(3)
	var ws Workspace
	var b Basis
	cycle := func() {
		if _, err := p.SolveWS(&ws); err != nil {
			t.Fatal(err)
		}
		if !ws.SaveBasis(&b) {
			t.Fatal("SaveBasis failed")
		}
		p.SetBounds(2, -10, 50)
		if _, err := p.ResolveBound(&ws, 2, -10, 50); err != nil {
			t.Fatal(err)
		}
		p.SetBounds(5, 0, 50)
		if _, err := p.ResolveBound(&ws, 5, 0, 50); err != nil {
			t.Fatal(err)
		}
		if exchangePivots(&ws, &b) == 0 {
			t.Fatal("hot resolves left the snapshot basis loaded: the restore needs no exchange")
		}
		p.SetBounds(2, -50, 50)
		p.SetBounds(5, -50, 50)
		p.SetBounds(3, -50, 10)
		rebuilds := ws.Rebuilds
		if _, err := p.SolveFromBasis(&ws, &b); err != nil {
			t.Fatal(err)
		}
		if ws.Rebuilds != rebuilds {
			t.Fatal("restore rebuilt the tableau instead of exchanging columns")
		}
		if _, err := q.SolveWS(&ws); err != nil {
			t.Fatal(err)
		}
		if _, err := p.SolveFromBasis(&ws, &b); err != nil {
			t.Fatal(err)
		}
		if ws.Rebuilds != rebuilds+1 {
			t.Fatal("restore after another problem's solve did not rebuild the tableau")
		}
		p.SetBounds(3, -50, 50)
	}
	cycle() // warm all buffers
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("warm restart cycle allocates %v times per run, want 0", avg)
	}
}

// FuzzSolveFromBasis cross-checks the warm restore against the cold solve on
// fuzzer-shaped problems: restored basis ⇒ same status and optimum.
func FuzzSolveFromBasis(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0xF00D), uint64(7))
	f.Add(uint64(42), uint64(0xBEEF))
	f.Fuzz(func(t *testing.T, seed, tweak uint64) {
		rng := rand.New(rand.NewPCG(seed, tweak))
		p := buildRandomBounded(rng)
		var ws Workspace
		s0, err := p.SolveWS(&ws)
		if err != nil || s0.Status != Optimal {
			return
		}
		var b Basis
		if !ws.SaveBasis(&b) {
			t.Fatal("SaveBasis refused after optimal solve")
		}
		v := tightenRandom(p, rng)
		warm, err := p.SolveFromBasis(&ws, &b)
		if err != nil {
			return // documented fallback path
		}
		cold, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsAgree(warm, cold, 1e-6) {
			t.Fatalf("var %d: warm %+v, cold %+v", v, warm, cold)
		}
	})
}

// checkExchangeRestore solves a random bounded LP at its bounds A and saves
// the basis, moves the workspace elsewhere (tightenings followed by hot
// resolves, or a cold solve), then restores the snapshot under bounds C: A
// with one branch-and-bound tightening. The restore must agree in status
// and optimum with a cold solve at C and with a rebuild restore on a fresh
// workspace. It returns the exchange pivots the restore needed, or −1 when
// no restore ran or it fell back to the rebuild.
func checkExchangeRestore(t *testing.T, seed, tweak uint64) int {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, tweak))
	p := buildRandomBounded(rng)
	var ws Workspace
	if s, err := p.SolveWS(&ws); err != nil || s.Status != Optimal {
		return -1
	}
	var b Basis
	if !ws.SaveBasis(&b) {
		t.Fatal("SaveBasis refused after optimal solve")
	}
	n := p.NumVars()
	lo, hi := make([]float64, n), make([]float64, n)
	for v := 0; v < n; v++ {
		lo[v], hi[v] = p.Bounds(v)
	}
	for k := 1 + rng.IntN(3); k > 0; k-- {
		v := tightenRandom(p, rng)
		if rng.IntN(4) == 0 {
			p.SolveWS(&ws) // any outcome: it only moves the workspace
			continue
		}
		vlo, vhi := p.Bounds(v)
		if s, err := p.ResolveBound(&ws, v, vlo, vhi); err != nil || s.Status != Optimal {
			break
		}
	}
	for v := 0; v < n; v++ {
		p.SetBounds(v, lo[v], hi[v])
	}
	v := tightenRandom(p, rng)
	pivots := -1
	if ws.fact {
		pivots = exchangePivots(&ws, &b)
	}
	rebuilds := ws.Rebuilds
	warm, err := p.SolveFromBasis(&ws, &b)
	if err == ErrWarmStall {
		return -1 // documented fallback path
	}
	if err != nil {
		t.Fatalf("var %d: restore of a snapshot of this problem: %v", v, err)
	}
	if ws.Rebuilds != rebuilds {
		pivots = -1
	}
	cold, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsAgree(warm, cold, 1e-6) {
		t.Fatalf("var %d: exchange restore %+v, cold %+v", v, warm, cold)
	}
	var fresh Workspace
	rebuilt, err := p.SolveFromBasis(&fresh, &b)
	if err == ErrWarmStall {
		return pivots
	}
	if err != nil {
		t.Fatalf("var %d: rebuild restore of a snapshot of this problem: %v", v, err)
	}
	if fresh.Rebuilds != 1 {
		t.Fatalf("restore on a fresh workspace did not rebuild: %d rebuilds", fresh.Rebuilds)
	}
	if !solutionsAgree(warm, rebuilt, 1e-6) {
		t.Fatalf("var %d: exchange restore %+v, rebuild restore %+v", v, warm, rebuilt)
	}
	return pivots
}

// TestSolveFromBasisExchangeMatchesCold runs checkExchangeRestore over
// fixed seeds and requires the exchange path to carry most restores, many
// of them with at least one pivot.
func TestSolveFromBasisExchangeMatchesCold(t *testing.T) {
	const cases = 400
	exchanged, pivoted := 0, 0
	for seed := uint64(0); seed < cases; seed++ {
		k := checkExchangeRestore(t, seed, 47)
		if k >= 0 {
			exchanged++
		}
		if k > 0 {
			pivoted++
		}
	}
	t.Logf("%d cases: %d exchange restores, %d with ≥1 pivot", cases, exchanged, pivoted)
	if exchanged < cases/4 || pivoted < cases/20 {
		t.Fatalf("exchange path under-exercised: %d of %d exchanged, %d pivoted", exchanged, cases, pivoted)
	}
}

// FuzzSolveFromBasisExchange cross-checks the exchange restore — the
// snapshot reached from a workspace that has since moved to other bounds —
// against the cold solve and the rebuild restore.
func FuzzSolveFromBasisExchange(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0xF00D), uint64(7))
	f.Add(uint64(42), uint64(0xBEEF))
	f.Fuzz(func(t *testing.T, seed, tweak uint64) {
		checkExchangeRestore(t, seed, tweak)
	})
}
