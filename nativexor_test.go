package dynunlock

import (
	"sort"
	"strings"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/flight"
	"dynunlock/internal/gf2"
	"dynunlock/internal/insight"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
	"dynunlock/internal/satattack"
)

// sortedSeedSet renders a candidate set as sorted bit strings so two
// enumerations compare as sets, independent of discovery order.
func sortedSeedSet(seeds []gf2.Vec) []string {
	out := make([]string, len(seeds))
	for i, s := range seeds {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// TestNativeXorMatchesCNFCandidates pins the native-XOR solver path to the
// pure-CNF reference on every committed benchmark configuration (the
// table2 bundle set: all ten Table II benchmarks at scale 16, 8-bit keys,
// per-cycle policy, seed base 100): the recovered candidate key set, exact
// to the element, must not depend on the encoding.
func TestNativeXorMatchesCNFCandidates(t *testing.T) {
	const (
		scale    = 16
		keyBits  = 8
		trials   = 2
		seedBase = 100
	)
	for _, e := range bench.Table2 {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			design, err := LockBenchmark(e.Name, keyBits, PerCycle, scale)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < trials; trial++ {
				// Same per-trial secret derivation as RunExperimentCtx.
				rngSeed := int64(seedBase) + int64(trial)*7919 + 1
				run := func(nativeXor bool) *core.Result {
					chip, err := Fabricate(design, rngSeed)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Unlock(chip, core.Options{NativeXor: nativeXor})
					if err != nil {
						t.Fatal(err)
					}
					if !core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
						t.Fatalf("trial %d nativeXor=%v: secret seed not recovered", trial, nativeXor)
					}
					return res
				}
				cnf, xor := run(false), run(true)
				if cnf.Converged != xor.Converged || cnf.Exact != xor.Exact {
					t.Fatalf("trial %d: flags diverge: cnf converged=%v exact=%v, xor converged=%v exact=%v",
						trial, cnf.Converged, cnf.Exact, xor.Converged, xor.Exact)
				}
				a, b := sortedSeedSet(cnf.SeedCandidates), sortedSeedSet(xor.SeedCandidates)
				if len(a) != len(b) {
					t.Fatalf("trial %d: candidate count %d (cnf) != %d (xor)", trial, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("trial %d: candidate sets diverge at %d: %s != %s", trial, i, a[i], b[i])
					}
				}
				if xor.SolverStats.XorPropagations == 0 {
					t.Fatalf("trial %d: native-XOR run never exercised the GF(2) propagator", trial)
				}
			}
		})
	}
}

// affineBench is an XOR-only sequential core (mirrors the insight package's
// acceptance fixture): every response bit stays affine in the seed, so the
// tracker certifies all information each DIP reveals.
const affineBench = `
INPUT(p0)
INPUT(p1)
OUTPUT(o0)
OUTPUT(o1)
f0 = DFF(n0)
f1 = DFF(n1)
f2 = DFF(n2)
f3 = DFF(n3)
f4 = DFF(n4)
f5 = DFF(n5)
n0 = XOR(f1, p0)
n1 = XNOR(f2, f0)
n2 = XOR(f3, p1)
n3 = XOR(f4, f1)
n4 = NOT(f5)
n5 = XOR(f0, f2)
o0 = XOR(f0, f3)
o1 = XNOR(f2, f5)
`

// TestAnalyticShortCircuitAffineCore is the fast-path acceptance test: on a
// fully affine core the insight feedback loop reaches full key rank and the
// attack terminates analytically — the key drops out of GF(2)
// back-substitution with no further SAT iterations — in both the mask-space
// (linear) and seed-space (direct) formulations, recovering exactly the
// candidate set the SAT-only attack finds.
func TestAnalyticShortCircuitAffineCore(t *testing.T) {
	n, err := netlist.ParseBench(strings.NewReader(affineBench), "affine")
	if err != nil {
		t.Fatal(err)
	}
	// 4-bit key: rank[A;B] = 4 = k on this fixture, so the certified
	// constraints can pin the full seed and the direct-mode short-circuit
	// (which needs full seed rank, not just determined masks) can fire.
	design, err := lock.Lock(n, lock.Config{KeyBits: 4, Policy: PerCycle})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeLinear, ModeDirect} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			run := func(analytic bool) *core.Result {
				chip, err := Fabricate(design, 7)
				if err != nil {
					t.Fatal(err)
				}
				opts := core.Options{Mode: mode, NativeXor: true}
				if analytic {
					tk, err := insight.New(design, insight.Options{})
					if err != nil {
						t.Fatal(err)
					}
					opts.OnDIP = satattack.ChainObservers(opts.OnDIP, tk.DIPObserver())
					opts.Insight = tk
				}
				res, err := Unlock(chip, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
					t.Fatalf("analytic=%v: secret seed not recovered", analytic)
				}
				return res
			}
			base, fast := run(false), run(true)
			if base.Analytic {
				t.Fatal("SAT-only run reported analytic")
			}
			if !fast.Analytic {
				t.Fatalf("affine core did not short-circuit analytically (iterations=%d)", fast.Iterations)
			}
			if !fast.Converged || !fast.Exact || !fast.Verified {
				t.Fatalf("analytic result flags: %+v", fast)
			}
			// Rank saturation ends the DIP loop: the analytic run never
			// needs more SAT iterations than the SAT-only reference.
			if fast.Iterations > base.Iterations {
				t.Fatalf("analytic run used more iterations (%d) than SAT-only (%d)",
					fast.Iterations, base.Iterations)
			}
			a, b := sortedSeedSet(base.SeedCandidates), sortedSeedSet(fast.SeedCandidates)
			if len(a) != len(b) {
				t.Fatalf("candidate count %d (sat) != %d (analytic)", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("candidate sets diverge at %d: %s != %s", i, a[i], b[i])
				}
			}
		})
	}
}

// TestAffineCrossover pins the headline perf claim at the ledger's recorded
// configuration (affine reference core, scale 16, 8-bit key, seed base
// 100): on XOR-dominated hardware the GF(2)-native path — native rows plus
// the insight feedback loop — must recover the same candidate set as pure
// CNF with no more solver conflicts, terminating analytically. The key
// class is unique, so exact early termination ends the pure-CNF run too:
// its conflicts per trial must stay under half of the committed affine_cnf
// ledger row's, which was recorded while the terminating miter UNSAT proof
// still ran.
func TestAffineCrossover(t *testing.T) {
	design, err := LockBenchmark("affine", 8, PerCycle, 16)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := flight.ReadBenchFile("BENCH_attack.json")
	if err != nil {
		t.Fatal(err)
	}
	cnfRow, ok := ledger.FindRow(flight.BenchRow{Benchmark: "affine", Scale: 16, KeyBits: 8,
		Policy: "per-cycle", Mode: "linear"})
	if !ok || cnfRow.Trials == 0 {
		t.Fatal("BENCH_attack.json has no affine_cnf row")
	}
	ledgerPerTrial := cnfRow.TotalConflicts / uint64(cnfRow.Trials)
	for trial := 0; trial < 2; trial++ {
		rngSeed := int64(100) + int64(trial)*7919 + 1
		run := func(native bool) *core.Result {
			chip, err := Fabricate(design, rngSeed)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{NativeXor: native}
			if native {
				tk, err := insight.New(design, insight.Options{})
				if err != nil {
					t.Fatal(err)
				}
				opts.OnDIP = satattack.ChainObservers(opts.OnDIP, tk.DIPObserver())
				opts.Insight = tk
			}
			res, err := Unlock(chip, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
				t.Fatalf("native=%v: secret seed not recovered", native)
			}
			return res
		}
		cnfRes, gf2Res := run(false), run(true)
		if !gf2Res.Analytic {
			t.Fatalf("trial %d: affine core did not terminate analytically", trial)
		}
		c, x := cnfRes.SolverStats.Conflicts, gf2Res.SolverStats.Conflicts
		if x > c {
			t.Fatalf("trial %d: GF(2)-native path used more conflicts than CNF: cnf=%d native=%d", trial, c, x)
		}
		if c*2 >= ledgerPerTrial {
			t.Fatalf("trial %d: CNF path did not halve the ledger's per-trial conflicts: cnf=%d ledger=%d",
				trial, c, ledgerPerTrial)
		}
		a, b := sortedSeedSet(cnfRes.SeedCandidates), sortedSeedSet(gf2Res.SeedCandidates)
		if len(a) != len(b) {
			t.Fatalf("trial %d: candidate count %d (cnf) != %d (native)", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: candidate sets diverge at %d: %s != %s", trial, i, a[i], b[i])
			}
		}
	}
}

// TestAnalyticExperimentConfig drives the facade path: Analytic on the
// experiment config arms the tracker without any telemetry sinks and the
// trial records the analytic outcome.
func TestAnalyticExperimentConfig(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Benchmark: "s5378",
		KeyBits:   8,
		Policy:    PerCycle,
		Scale:     16,
		Trials:    1,
		SeedBase:  11,
		NativeXor: true,
		Analytic:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSucceeded() {
		t.Fatalf("analytic experiment failed: %+v", res.Trials)
	}
}
