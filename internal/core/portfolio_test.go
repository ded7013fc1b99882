package core

import (
	"sort"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/oracle"
	"dynunlock/internal/scan"
)

// Every portfolio width must recover exactly the one-instance attack's seed
// equivalence class on the paper's s208 walkthrough. The chip is
// re-fabricated per run so each run sees a fresh oracle with identical
// secrets.
func TestS208WalkthroughPortfolioMatchesSequential(t *testing.T) {
	run := func(portfolio int) []string {
		n := bench.S208F()
		d, err := lock.Lock(n, lock.Config{KeyBits: 3, Policy: scan.PerCycle})
		if err != nil {
			t.Fatal(err)
		}
		d.Chain.Gates = []scan.KeyGate{{Link: 1, KeyBit: 0}, {Link: 2, KeyBit: 1}, {Link: 5, KeyBit: 2}}
		seed := gf2.FromBools([]bool{true, false, true})
		chip, err := oracle.New(d, seed, []bool{true, true, false})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeLinear, ModeDirect} {
			res, err := Attack(chip, Options{Mode: mode, Portfolio: portfolio, EnumerateLimit: 8})
			if err != nil {
				t.Fatalf("portfolio %d mode %v: %v", portfolio, mode, err)
			}
			if !res.Converged || !res.Exact {
				t.Fatalf("portfolio %d mode %v: not exactly converged", portfolio, mode)
			}
			if !ContainsSeed(res.SeedCandidates, seed) {
				t.Fatalf("portfolio %d mode %v: secret seed missing", portfolio, mode)
			}
			if !res.Verified {
				t.Fatalf("portfolio %d mode %v: probe verification failed", portfolio, mode)
			}
			if mode == ModeLinear {
				out := make([]string, len(res.SeedCandidates))
				for i, c := range res.SeedCandidates {
					out[i] = c.String()
				}
				sort.Strings(out)
				return out
			}
		}
		panic("unreachable")
	}

	ref := run(1)
	for _, n := range []int{2, 4} {
		got := run(n)
		if len(got) != len(ref) {
			t.Fatalf("portfolio %d: %d candidates, want %d", n, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("portfolio %d: candidate %d = %s, want %s", n, i, got[i], ref[i])
			}
		}
	}
}

// A mid-size locked circuit attacked with a portfolio must still satisfy
// the analytic candidate-count prediction 2^(k - rank[A;B]).
func TestPortfolioMatchesAnalyticPrediction(t *testing.T) {
	_, chip := lockedChip(t, 12, 6, scan.PerCycle, 31, 77)
	res, err := Attack(chip, Options{Portfolio: 3, EnumerateLimit: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Exact {
		t.Fatal("portfolio attack not exactly converged")
	}
	if got, want := len(res.SeedCandidates), 1<<uint(res.PredictedLog2); got != want {
		t.Fatalf("candidates = %d, predicted %d", got, want)
	}
	if !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
		t.Fatal("secret seed not recovered")
	}
}
