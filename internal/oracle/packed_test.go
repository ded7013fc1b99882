package oracle

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/scan"
	"dynunlock/internal/sim"
)

// refChip is the chip as it was simulated before the packed words: bool
// flops, the key register stepped and read bit by bit, and a shift edge
// that walks the chain flop by flop XORing the key bits of each link. It
// shares nothing with Chip but the design.
type refChip struct {
	d        *lock.Design
	seq      *sim.Seq
	secret   []bool
	authKey  []bool
	reg      []bool
	linkBits [][]int

	lfsrSteps, globalCycle, patterns int
	flops                            []bool
}

func newRefChip(d *lock.Design, secret gf2.Vec, authKey []bool) *refChip {
	r := &refChip{
		d:        d,
		seq:      sim.NewSeq(d.View),
		secret:   secret.Bools(),
		authKey:  authKey,
		linkBits: make([][]int, d.Chain.Length),
	}
	for _, g := range d.Chain.Gates {
		r.linkBits[g.Link] = append(r.linkBits[g.Link], g.KeyBit)
	}
	r.reset()
	return r
}

func (r *refChip) reset() {
	r.flops = make([]bool, r.d.Chain.Length)
	r.reg = append([]bool(nil), r.secret...)
	r.lfsrSteps, r.globalCycle, r.patterns = 0, 0, 0
}

func (r *refChip) keyRegister() []bool {
	cfg := r.d.Config
	if cfg.Policy == scan.Static {
		return r.secret
	}
	for target := cfg.Policy.Steps(r.patterns, r.globalCycle, cfg.Period); r.lfsrSteps < target; r.lfsrSteps++ {
		fb := false
		for _, t := range cfg.Poly.Taps {
			fb = fb != r.reg[t-1]
		}
		copy(r.reg[1:], r.reg[:len(r.reg)-1])
		r.reg[0] = fb
	}
	return r.reg
}

func (r *refChip) shiftEdge(si bool, key []bool) {
	n := r.d.Chain.Length
	for j := n - 1; j >= 1; j-- {
		v := r.flops[j-1]
		for _, bit := range r.linkBits[j] {
			if key[bit] {
				v = !v
			}
		}
		r.flops[j] = v
	}
	r.flops[0] = si
}

func (r *refChip) sessionN(testKey, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool) {
	n := r.d.Chain.Length
	match := slices.Equal(testKey, r.authKey)
	key := func() []bool {
		if match {
			return r.authKey
		}
		return r.keyRegister()
	}
	for t := 0; t < n; t++ {
		r.shiftEdge(scanIn[n-1-t], key())
		r.globalCycle++
	}
	r.seq.SetState(r.flops)
	for _, pi := range pis {
		pos = append(pos, r.seq.Step(pi))
		r.globalCycle++
	}
	r.flops = r.seq.State()
	scanOut = make([]bool, n)
	first := n + len(pis)
	for t := first; t < first+n; t++ {
		scanOut[first+n-1-t] = r.flops[n-1]
		r.shiftEdge(false, key())
		r.globalCycle++
	}
	r.patterns++
	return scanOut, pos
}

// wideDesign locks a Table II benchmark at full scale with a wide key, as
// the widekey attack benchmark does (s5378@320/324, s13207@400).
func wideDesign(t testing.TB, name string, keyBits int, policy scan.Policy, period int) *lock.Design {
	t.Helper()
	entry, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	n, err := entry.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: keyBits, Policy: policy, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The packed chip must reproduce the gate-by-gate reference on the widekey
// designs under every policy: six sessions in a row without reset (so the
// per-pattern register reaches pattern index 5 and the per-cycle register
// runs across sessions), then one after a reset and one with the matching
// test key, each with 1–3 captures.
func TestPackedChipMatchesGateByGate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	designs := []struct {
		name    string
		keyBits int
	}{{"s5378", 320}, {"s5378", 324}, {"s13207", 400}}
	policies := []struct {
		policy scan.Policy
		period int
	}{{scan.PerCycle, 0}, {scan.PerPattern, 3}, {scan.Static, 0}}
	for _, dc := range designs {
		for _, pc := range policies {
			d := wideDesign(t, dc.name, dc.keyBits, pc.policy, pc.period)
			secret := randSeed(rng, dc.keyBits)
			authKey := randBools(rng, dc.keyBits)
			chip, err := New(d, secret, authKey)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefChip(d, secret, authKey)
			testKey := make([]bool, dc.keyBits)
			for s := 0; s < 8; s++ {
				switch s {
				case 6:
					chip.Reset()
					ref.reset()
				case 7:
					testKey = authKey
				}
				captures := 1 + s%3
				scanIn := randBools(rng, d.Chain.Length)
				pis := make([][]bool, captures)
				for c := range pis {
					pis[c] = randBools(rng, d.View.NumPI)
				}
				gotOut, gotPOs := chip.SessionN(testKey, scanIn, pis)
				wantOut, wantPOs := ref.sessionN(testKey, scanIn, pis)
				what := fmt.Sprintf("%s@%d/%v session %d (x%d)", dc.name, dc.keyBits, pc.policy, s, captures)
				assertEq(t, gotOut, wantOut, what+" scan-out")
				for c := range wantPOs {
					assertEq(t, gotPOs[c], wantPOs[c], what+" po")
				}
			}
		}
	}
}

// BenchmarkOracleSession times one reset + single-capture scan session on
// s13207 with a 400-bit per-cycle key: 405 shift and capture cycles.
func BenchmarkOracleSession(b *testing.B) {
	d := wideDesign(b, "s13207", 400, scan.PerCycle, 0)
	rng := rand.New(rand.NewSource(42))
	chip, err := New(d, randSeed(rng, 400), randBools(rng, 400))
	if err != nil {
		b.Fatal(err)
	}
	testKey := make([]bool, 400)
	scanIn := randBools(rng, d.Chain.Length)
	pi := randBools(rng, d.View.NumPI)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Reset()
		chip.Session(testKey, scanIn, pi)
	}
}
