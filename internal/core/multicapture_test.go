package core

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dynunlock/internal/gf2"
	"dynunlock/internal/scan"
	"dynunlock/internal/sim"
	"dynunlock/internal/trace"
)

// The multi-capture model must match the chip's multi-capture sessions bit
// for bit, as the single-capture model does.
func TestMultiCaptureModelMatchesChip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, captures := range []int{2, 3} {
		for trial := 0; trial < 3; trial++ {
			ffs := 5 + rng.Intn(10)
			keyBits := 3 + rng.Intn(6)
			d, chip := lockedChip(t, ffs, keyBits, scan.PerCycle, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
			mm, err := buildModel(d, 0, captures, ModeLinear)
			if err != nil {
				t.Fatal(err)
			}
			simulator := sim.NewComb(mm.Locked.View)
			seed := chip.SecretSeed()
			uv := gf2.VStack(mm.A, mm.B).MulVec(seed)

			for q := 0; q < 4; q++ {
				scanIn := randBools(rng, ffs)
				pis := make([][]bool, captures)
				for c := range pis {
					pis[c] = randBools(rng, 6)
				}
				chip.Reset()
				scanOut, pos := chip.SessionN(make([]bool, keyBits), scanIn, pis)

				in := make([]bool, len(mm.Locked.View.Inputs))
				off := 0
				for _, pi := range pis {
					copy(in[off:], pi)
					off += len(pi)
				}
				copy(in[off:], scanIn)
				off += ffs
				for _, j := range mm.UPos {
					in[off] = uv.Get(j)
					off++
				}
				for _, j := range mm.VPos {
					in[off] = uv.Get(ffs + j)
					off++
				}
				out := simulator.EvalBits(in)
				idx := 0
				for _, po := range pos {
					for _, b := range po {
						if out[idx] != b {
							t.Fatalf("captures=%d: PO %d mismatch", captures, idx)
						}
						idx++
					}
				}
				for j := 0; j < ffs; j++ {
					if out[idx+j] != scanOut[j] {
						t.Fatalf("captures=%d: scan-out %d mismatch", captures, j)
					}
				}
			}
		}
	}
}

// AttackMulti must recover the seed end to end.
func TestAttackMultiRecoversSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	_, chip := lockedChip(t, 9, 5, scan.PerCycle, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
	res, err := AttackMulti(chip, 2, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
		t.Fatalf("multi-capture attack failed: converged=%v candidates=%d",
			res.Converged, len(res.SeedCandidates))
	}
	// One capture is the standard attack.
	res1, err := AttackMulti(chip, 1, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !ContainsSeed(res1.SeedCandidates, chip.SecretSeed()) {
		t.Fatal("one-capture attack failed")
	}
}

// flipChip passes the first `after` sessions through and flips scan-out
// bit 0 of every later one.
type flipChip struct {
	Chip
	after, sessions int
}

func (c *flipChip) Session(testKey, scanIn, pi []bool) ([]bool, []bool) {
	out, po := c.Chip.Session(testKey, scanIn, pi)
	return c.flip(out), po
}

func (c *flipChip) SessionN(testKey, scanIn []bool, pis [][]bool) ([]bool, [][]bool) {
	out, pos := c.Chip.SessionN(testKey, scanIn, pis)
	return c.flip(out), pos
}

func (c *flipChip) flip(out []bool) []bool {
	c.sessions++
	if c.sessions > c.after {
		out[0] = !out[0]
	}
	return out
}

// A multi-capture attack verifies its candidates on the chip with
// multi-capture probes, honours opts.Mode, and reports the verify stage and
// the result on the trace: a chip that stops answering like the recovered
// seed after the DIP queries must fail verification.
func TestAttackMultiVerifiesOnChip(t *testing.T) {
	const probes = 5
	opts := Options{Mode: ModeDirect, EnumerateLimit: 64, VerifyProbes: probes}
	_, chip := lockedChip(t, 9, 5, scan.PerCycle, 61, 62)
	c := trace.NewCollector()
	res, err := AttackMultiCtx(trace.With(context.Background(), c), chip, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Mode != ModeDirect || !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
		t.Fatalf("honest chip: verified=%v mode=%v candidates=%d", res.Verified, res.Mode, len(res.SeedCandidates))
	}
	var verifyProbes uint64
	for _, sp := range c.Spans() {
		if sp.Name == "verify" {
			verifyProbes = sp.Counters["probes"]
		}
	}
	if verifyProbes != probes {
		t.Fatalf("verify span probes = %d, want %d", verifyProbes, probes)
	}
	var results []trace.Event
	for _, ev := range c.Events() {
		if ev.Type == "result" {
			results = append(results, ev)
		}
	}
	if len(results) != 1 {
		t.Fatalf("%d result events, want 1", len(results))
	}
	if got := results[0].Fields["oracle_sessions"]; got != uint64(res.Queries+probes) {
		t.Fatalf("oracle_sessions = %v, want %d queries + %d probes", got, res.Queries, probes)
	}

	_, fresh := lockedChip(t, 9, 5, scan.PerCycle, 61, 62)
	flipped, err := AttackMulti(&flipChip{Chip: fresh, after: res.Queries}, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if flipped.Queries != res.Queries || len(flipped.SeedCandidates) != len(res.SeedCandidates) {
		t.Fatalf("the DIP queries changed: %d queries, %d candidates", flipped.Queries, len(flipped.SeedCandidates))
	}
	if flipped.Verified {
		t.Fatal("verified against a chip whose probe sessions disagree with every candidate")
	}
}

// The encode pipeline options reach the multi-capture attack: with
// NativeXor, AIG and Simplify on, the seed-candidate set is the same as on
// the direct-encode path, and the compacted encoding emits fewer clauses.
func TestAttackMultiPipelineOptions(t *testing.T) {
	for _, cfg := range []struct {
		ffs, keyBits int
		circuit      int64
	}{{9, 5, 61}, {4, 10, 100}, {6, 8, 7}} {
		_, chip := lockedChip(t, cfg.ffs, cfg.keyBits, scan.PerCycle, cfg.circuit, cfg.circuit+1)
		plain, err := AttackMulti(chip, 2, Options{EnumerateLimit: 2048})
		if err != nil {
			t.Fatal(err)
		}
		piped, err := AttackMulti(chip, 2, Options{EnumerateLimit: 2048, NativeXor: true, AIG: true, Simplify: true})
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Exact || !piped.Exact {
			t.Fatalf("%+v: exact %v/%v", cfg, plain.Exact, piped.Exact)
		}
		a, b := seedStrings(plain.SeedCandidates), seedStrings(piped.SeedCandidates)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("%+v: candidate sets differ: %v vs %v", cfg, a, b)
		}
		if !ContainsSeed(piped.SeedCandidates, chip.SecretSeed()) {
			t.Fatalf("%+v: secret seed lost", cfg)
		}
		if piped.EncodeClauses == 0 || piped.EncodeClauses >= plain.EncodeClauses {
			t.Fatalf("%+v: encode clauses %d with the pipeline, %d without", cfg, piped.EncodeClauses, plain.EncodeClauses)
		}
	}
}

func seedStrings(seeds []gf2.Vec) []string {
	out := make([]string, len(seeds))
	for i, s := range seeds {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// The paper's refinement claim: when the single-capture masks are rank
// deficient (more key bits than the session exposes), a second capture adds
// independent linear constraints and shrinks the candidate class.
func TestSecondCaptureShrinksCandidates(t *testing.T) {
	// Few flops, many key bits: rank([A;B]) < k for one capture.
	found := false
	for attempt := int64(0); attempt < 6 && !found; attempt++ {
		d, chip := lockedChip(t, 4, 10, scan.PerCycle, 100+attempt, 200+attempt)
		A1, B1, err := maskMatricesN(d, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		r1 := gf2.Rank(gf2.VStack(A1, B1))
		A2, B2, err := maskMatricesN(d, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		combined := gf2.VStack(gf2.VStack(A1, B1), gf2.VStack(A2, B2))
		r12 := gf2.Rank(combined)
		if r1 >= 10 || r12 <= r1 {
			continue // this placement doesn't exhibit the deficiency; try another
		}
		found = true

		res1, err := Attack(chip, Options{EnumerateLimit: 2048})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := AttackMulti(chip, 2, Options{EnumerateLimit: 2048})
		if err != nil {
			t.Fatal(err)
		}
		if !ContainsSeed(res1.SeedCandidates, chip.SecretSeed()) ||
			!ContainsSeed(res2.SeedCandidates, chip.SecretSeed()) {
			t.Fatal("seed lost")
		}
		// Intersecting both candidate sets realizes the combined rank.
		inter := 0
		for _, s2 := range res2.SeedCandidates {
			if ContainsSeed(res1.SeedCandidates, s2) {
				inter++
			}
		}
		if inter >= len(res1.SeedCandidates) && len(res1.SeedCandidates) > 1 {
			t.Fatalf("second capture did not prune: %d -> %d (ranks %d -> %d)",
				len(res1.SeedCandidates), inter, r1, r12)
		}
	}
	if !found {
		t.Skip("no rank-deficient placement found in attempts")
	}
}

func TestMaskMatricesNValidation(t *testing.T) {
	d, _ := lockedChip(t, 6, 4, scan.PerCycle, 300, 301)
	if _, _, err := maskMatricesN(d, 0, 0); err == nil {
		t.Fatal("want error for captures=0")
	}
	if _, err := buildModel(d, -1, 1, ModeLinear); err == nil {
		t.Fatal("want error for negative pattern index")
	}
}
