package satattack_test

import (
	"context"
	"testing"

	"dynunlock"
	"dynunlock/internal/core"
	"dynunlock/internal/trace"
)

// A key class that is not unique leaves the consistency checker
// inconclusive at every DIP, so the attack falls back to the miter UNSAT
// proof and enumerates the full class. The affine reference core with a
// 16-bit key at scale 16 has a mask class of 16 and a seed class of 4.
func TestEarlyTerminationFallback(t *testing.T) {
	design, err := dynunlock.LockBenchmark("affine", 16, dynunlock.PerCycle, 16)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		chip, err := dynunlock.Fabricate(design, int64(1+trial*7919+1))
		if err != nil {
			t.Fatal(err)
		}
		c := trace.NewCollector()
		res, err := core.AttackCtx(trace.With(context.Background(), c), chip,
			core.Options{NativeXor: true, AIG: true, Simplify: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || !res.Exact || !res.Verified {
			t.Fatalf("trial %d: converged=%v exact=%v verified=%v", trial, res.Converged, res.Exact, res.Verified)
		}
		if len(res.SeedCandidates) != 4 {
			t.Fatalf("trial %d: %d seed candidates, want the class of 4", trial, len(res.SeedCandidates))
		}
		if !core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
			t.Fatalf("trial %d: secret seed not recovered", trial)
		}
		// The miter's terminating solve, extraction and enumeration ran:
		// more SAT calls than DIPs.
		if wins := res.InstanceWins[0]; wins <= res.Iterations {
			t.Fatalf("trial %d: %d SAT calls for %d DIPs; the miter proof did not run", trial, wins, res.Iterations)
		}
		for _, sp := range c.Spans() {
			switch sp.Name {
			case "dip_loop":
				if sp.Counters["check_solves"] == 0 {
					t.Fatalf("trial %d: the consistency checker never ran", trial)
				}
			case "enumerate":
				if sp.Counters["candidates"] != 16 {
					t.Fatalf("trial %d: %d mask candidates, want 16", trial, sp.Counters["candidates"])
				}
			}
		}
	}
}
