package core

import (
	"fmt"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/scan"
)

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

// refRegisterStates is the per-step unrolling the shift sequence replaced:
// one full k×k state matrix per step count 0..maxSteps, stepped row by row.
func refRegisterStates(d *lock.Design, maxSteps int) []*gf2.Mat {
	k := d.Config.KeyBits
	states := make([]*gf2.Mat, maxSteps+1)
	if d.Config.Policy == scan.Static {
		for i := range states {
			states[i] = gf2.Identity(k)
		}
		return states
	}
	rows := make([]gf2.Vec, k)
	for i := range rows {
		rows[i] = gf2.Unit(k, i)
	}
	for t := range states {
		states[t] = gf2.FromRows(rows)
		fb := gf2.NewVec(k)
		for _, tap := range d.Config.Poly.Taps {
			fb.Xor(rows[tap-1])
		}
		copy(rows[1:], rows[:k-1])
		rows[0] = fb
	}
	return states
}

// refMaskMatricesN is maskMatricesN as it was before the shift sequence:
// each mask row XORs rows of the per-step state matrices.
func refMaskMatricesN(d *lock.Design, states []*gf2.Mat, patIdx, captures int) (A, B *gf2.Mat) {
	k := d.Config.KeyBits
	n := d.Chain.Length
	row := func(terms []scan.Term) gf2.Vec {
		v := gf2.NewVec(k)
		for _, t := range terms {
			steps := d.Config.Policy.Steps(patIdx, t.Cycle, d.Config.Period)
			v.Xor(states[steps].Row(t.KeyBit))
		}
		return v
	}
	A, B = gf2.NewMat(n, k), gf2.NewMat(n, k)
	for j := 0; j < n; j++ {
		A.SetRow(j, row(d.Chain.InMaskTerms(j)))
		B.SetRow(j, row(d.Chain.OutMaskTermsN(j, captures)))
	}
	return A, B
}

func matEqual(a, b *gf2.Mat) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !a.Row(i).Equal(b.Row(i)) {
			return false
		}
	}
	return true
}

// The masks read off the shift sequence must equal the per-step reference
// on the widekey designs, for every policy, pattern index and capture
// count the model supports.
func TestMaskMatricesMatchPerStepReference(t *testing.T) {
	designs := []struct {
		name    string
		keyBits int
	}{{"s5378", 320}, {"s5378", 324}, {"s13207", 400}}
	policies := []struct {
		policy  scan.Policy
		period  int
		patIdxs []int
	}{
		{scan.PerCycle, 0, []int{0}},
		{scan.PerPattern, 3, []int{0, 5}},
		{scan.Static, 0, []int{0}},
	}
	for _, dc := range designs {
		for _, pc := range policies {
			d := wideDesign(t, dc.name, dc.keyBits, pc.policy, pc.period)
			// One reference unrolling long enough for three captures.
			states := refRegisterStates(d, d.Chain.SessionCyclesN(3))
			for _, patIdx := range pc.patIdxs {
				for captures := 1; captures <= 3; captures++ {
					name := fmt.Sprintf("%s@%d/%v/pat%d/x%d", dc.name, dc.keyBits, pc.policy, patIdx, captures)
					A, B, err := maskMatricesN(d, patIdx, captures)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantA, wantB := refMaskMatricesN(d, states, patIdx, captures)
					if !matEqual(A, wantA) || !matEqual(B, wantB) {
						t.Fatalf("%s: masks differ from the per-step reference", name)
					}
				}
			}
		}
	}
}

// maskBenchDesign is the largest widekey design: s13207 with a 400-bit key.
func maskBenchDesign(b *testing.B) *lock.Design {
	return wideDesign(b, "s13207", 400, scan.PerCycle, 0)
}

func BenchmarkMaskMatrices(b *testing.B) {
	d := maskBenchDesign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaskMatrices(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifierSession times one closed-form session prediction for a
// seed, the per-candidate, per-probe cost of the verify stage.
func BenchmarkVerifierSession(b *testing.B) {
	d := maskBenchDesign(b)
	v, err := NewVerifier(d)
	if err != nil {
		b.Fatal(err)
	}
	rng := newSplitMix(7)
	seed := gf2.FromBools(randomBits(rng, d.Config.KeyBits))
	scanIn := randomBits(rng, d.Chain.Length)
	pi := randomBits(rng, d.View.NumPI)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Session(seed, scanIn, pi)
	}
}
