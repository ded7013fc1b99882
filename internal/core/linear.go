package core

import (
	"fmt"

	"dynunlock/internal/gf2"
	"dynunlock/internal/satattack"
)

// Mode selects how the seed search space is presented to the SAT engine.
type Mode int8

// Attack modes.
const (
	// ModeLinear (default) runs the SAT attack over the mask space
	// (u, v) = (A·s, B·s) — structurally the static-obfuscation model of
	// ScanSAT — and then back-solves the LFSR seed(s) with Gaussian
	// elimination. This hoists the linear reasoning that the paper's
	// lingeling performs by clause resolution ("the SAT attack sometimes
	// resolves only these [LFSR] clauses", Sec. IV) into explicit GF(2)
	// algebra, which plain CDCL cannot do efficiently. The recovered
	// candidate set is provably identical to ModeDirect's: s is consistent
	// with the oracle iff (A·s, B·s) lies in the recovered mask class.
	ModeLinear Mode = iota
	// ModeDirect feeds the seed-parameterized circuit (Fig. 4) to the SAT
	// attack exactly as the paper describes. Faithful but embeds a dense
	// GF(2) system in CNF, which is resolution-hard: practical only for
	// small key sizes with this repository's from-scratch CDCL solver.
	ModeDirect
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeLinear:
		return "linear"
	case ModeDirect:
		return "direct"
	default:
		return fmt.Sprintf("Mode(%d)", int8(m))
	}
}

// SeedsForMaskCoset recovers every seed whose mask lies in the coset
// spanned by the recovered mask-class members: the class of functionally
// equivalent masks is always m0 ⊕ V for a linear subspace V (mask
// differences compose under XOR), so the seeds solve the augmented system
//
//	[A;B]·s ⊕ F·t = m0
//
// where F is an echelon basis of the observed member differences. If the
// member list is the complete class (exact enumeration), the result is the
// complete seed-candidate set; a partial member list yields a sound subset.
func (m *Model) SeedsForMaskCoset(members []gf2.Vec, limit int) []gf2.Vec {
	if len(members) == 0 {
		return nil
	}
	m0 := members[0]
	// Basis of the difference space V: row-reduce the member differences.
	diffs := gf2.NewMat(0, m0.Len())
	for _, member := range members[1:] {
		diffs.AppendRow(member.XorInto(m0))
	}
	var basis []gf2.Vec
	if diffs.Rows() > 0 {
		ech := gf2.Reduce(diffs)
		for i := 0; i < ech.Rank(); i++ {
			basis = append(basis, ech.R.Row(i))
		}
	}
	// Augmented system: columns of [A;B] for s, columns of basis for t.
	k := m.Design.Config.KeyBits
	rows := 2 * m.Design.Chain.Length
	aug := gf2.NewMat(rows, k+len(basis))
	for r := 0; r < m.Design.Chain.Length; r++ {
		for _, c := range m.A.Row(r).Ones() {
			aug.Set(r, c, true)
		}
		for _, c := range m.B.Row(r).Ones() {
			aug.Set(m.Design.Chain.Length+r, c, true)
		}
	}
	for ti, b := range basis {
		for _, r := range b.Ones() {
			aug.Set(r, k+ti, true)
		}
	}
	sols, ok := gf2.EnumerateSolutions(aug, m0, limit)
	if !ok {
		return nil
	}
	// Project to s and dedupe (distinct (s,t) pairs can share s only if F
	// had dependent columns, which the echelon construction rules out; the
	// dedupe guards against future basis changes).
	seen := make(map[string]bool, len(sols))
	var seeds []gf2.Vec
	for _, st := range sols {
		s := gf2.NewVec(k)
		for _, one := range st.Ones() {
			if one < k {
				s.Set(one, true)
			}
		}
		if key := s.String(); !seen[key] {
			seen[key] = true
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// maskInsight adapts a seed-space InsightSource (the insight tracker) to
// the mask key space of a ModeLinear Model. Each mask key bit j is the linear form
// mrows[j]·s of the seed, so a certified seed constraint r·s = c translates
// to the key constraint Σ_{j∈J} key[j] = c for any J with Σ_{j∈J} mrows[j]
// = r — found by solving Mᵀ·y = r for the selection vector y. Rows outside
// the mask row space carry seed information the mask model cannot express
// and are skipped (sound: fewer injected constraints never shrinks the
// candidate set below the true class). SolveKey fires as soon as every mask
// key bit is determined by the certified basis, which can happen before
// full seed rank when the masks span less than the whole seed space.
//
// The adapter is only touched from the attack's injection point (one
// goroutine), so it carries no lock of its own; the wrapped source does its
// own locking.
type maskInsight struct {
	src   satattack.InsightSource
	k     int       // seed bits
	mrows []gf2.Vec // per key bit: the seed-space row computing that bit
	mt    *gf2.Mat  // k × numKey: column j is mrows[j]
	basis *gf2.Basis
}

// newMaskInsight wraps a seed-space source for one mask model.
func newMaskInsight(model *Model, src satattack.InsightSource) *maskInsight {
	k := model.Design.Config.KeyBits
	var mrows []gf2.Vec
	for _, j := range model.UPos {
		mrows = append(mrows, model.A.Row(j))
	}
	for _, j := range model.VPos {
		mrows = append(mrows, model.B.Row(j))
	}
	mt := gf2.NewMat(k, len(mrows))
	for j, r := range mrows {
		for _, c := range r.Ones() {
			mt.Set(c, j, true)
		}
	}
	return &maskInsight{src: src, k: k, mrows: mrows, mt: mt, basis: gf2.NewBasis(k)}
}

// ConstraintsSince implements satattack.InsightSource: it drains the wrapped
// seed-space source, folds every row into its own basis (for SolveKey), and
// returns the translatable ones re-indexed over the mask key bits. The
// cursor is the wrapped source's cursor, passed through.
func (mi *maskInsight) ConstraintsSince(from int) ([]satattack.KeyConstraint, int) {
	inner, next := mi.src.ConstraintsSince(from)
	var out []satattack.KeyConstraint
	for _, c := range inner {
		row := gf2.NewVec(mi.k)
		for _, i := range c.Idx {
			if i >= mi.k {
				row = gf2.Vec{}
				break
			}
			row.Set(i, true)
		}
		if row.Len() == 0 {
			continue // malformed row from a foreign source; drop it
		}
		mi.basis.Insert(row, c.RHS)
		y, ok := gf2.Solve(mi.mt, row)
		if !ok {
			continue // outside the mask row space: inexpressible here
		}
		out = append(out, satattack.KeyConstraint{Idx: y.Ones(), RHS: c.RHS})
	}
	return out, next
}

// SolveKey implements satattack.InsightSource: the mask key is determined
// once every key bit's seed row projects onto the certified basis.
func (mi *maskInsight) SolveKey() ([]bool, bool) {
	if mi.basis.Inconsistent() {
		return nil, false
	}
	key := make([]bool, len(mi.mrows))
	for j, r := range mi.mrows {
		rhs, determined := mi.basis.Project(r)
		if !determined {
			return nil, false
		}
		key[j] = rhs
	}
	return key, true
}
