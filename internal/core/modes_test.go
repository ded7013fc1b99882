package core

import (
	"math/rand"
	"sort"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/oracle"
	"dynunlock/internal/scan"
)

// ModeDirect (the paper's seed-parameterized formulation) and ModeLinear
// (mask-space SAT attack + GF(2) back-substitution) must recover identical
// candidate sets — the equivalence DESIGN.md claims — for one capture and
// for a multi-capture session.
func TestModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, policy := range []scan.Policy{scan.PerCycle, scan.Static} {
		for trial := 0; trial < 3; trial++ {
			ffs := 5 + rng.Intn(8)
			keyBits := 3 + rng.Intn(4)
			_, chip := lockedChip(t, ffs, keyBits, policy, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
			for _, captures := range []int{1, 2} {
				direct, err := AttackMulti(chip, captures, Options{Mode: ModeDirect, EnumerateLimit: 1 << uint(keyBits)})
				if err != nil {
					t.Fatalf("direct: %v", err)
				}
				linear, err := AttackMulti(chip, captures, Options{Mode: ModeLinear, EnumerateLimit: 1 << uint(keyBits)})
				if err != nil {
					t.Fatalf("linear: %v", err)
				}
				if !direct.Exact || !linear.Exact {
					t.Fatalf("%v ffs=%d k=%d x%d: inexact (direct=%v linear=%v)", policy, ffs, keyBits, captures, direct.Exact, linear.Exact)
				}
				a, b := seedsSorted(direct), seedsSorted(linear)
				if len(a) != len(b) {
					t.Fatalf("%v ffs=%d k=%d x%d: candidate counts differ: direct=%d linear=%d",
						policy, ffs, keyBits, captures, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%v ffs=%d k=%d x%d: candidate sets differ", policy, ffs, keyBits, captures)
					}
				}
				if !ContainsSeed(direct.SeedCandidates, chip.SecretSeed()) {
					t.Fatal("secret missing")
				}
			}
		}
	}
}

func seedsSorted(r *Result) []string {
	out := make([]string, len(r.SeedCandidates))
	for i, s := range r.SeedCandidates {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

func TestModeString(t *testing.T) {
	if ModeLinear.String() != "linear" || ModeDirect.String() != "direct" {
		t.Fatal("Mode.String wrong")
	}
}

// DOS-style locking with an update period greater than one: the session-0
// model still applies (the register holds the seed for the whole first
// epoch), and the attack recovers the seed.
func TestAttackDOSPeriodGreaterThanOne(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	n, err := bench.Generate(bench.GenConfig{Name: "dos", PIs: 6, POs: 3, FFs: 10, Gates: 80, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: 6, Policy: scan.PerPattern, Period: 3})
	if err != nil {
		t.Fatal(err)
	}
	seed := gf2.NewVec(6)
	for i := 0; i < 6; i++ {
		if rng.Intn(2) == 1 {
			seed.Set(i, true)
		}
	}
	seed.Set(0, true)
	auth := make([]bool, 6)
	auth[1] = true
	chip, err := oracle.New(d, seed, auth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Attack(chip, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !ContainsSeed(res.SeedCandidates, seed) {
		t.Fatalf("DOS p=3 attack failed: converged=%v candidates=%d", res.Converged, len(res.SeedCandidates))
	}
}
