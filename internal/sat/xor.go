// XOR layer: native GF(2) parity constraints beside the CNF watch-list
// engine, in the cryptominisat style. Each constraint is a row
// "XOR(vars) = rhs". AddXor reduces a scratch copy of every new row against
// a top-level echelon (pivot = smallest variable) with level-0 assignments
// folded out, so injecting linearly dependent rows — the common case when
// the insight tracker streams certified constraints after every DIP —
// costs no storage and immediately detects inconsistency or a forced
// assignment. Independent rows are stored in their ORIGINAL sparse form:
// circuit parity rows chain through shared low-index variables, and
// eliminating those pivots would densify the stored system, turning every
// implication reason into a near-full-width clause and poisoning conflict
// analysis. The echelon is Gaussian bookkeeping only; the sparse originals
// are what search propagates over. During search each row watches two of
// its variables; when a watched variable is assigned the row is scanned in
// full: with one unassigned variable left the forced value is enqueued
// (reason materialized lazily, see reasonFor), with none left and wrong
// parity a conflict clause is synthesized for the standard first-UIP
// analysis. The full scan — rather than minimal watch movement — keeps
// propagation complete when both watches of a row are assigned within one
// propagation batch.
package sat

import (
	"slices"

	"dynunlock/internal/cnf"
)

// xorRow is one parity constraint XOR(vars) = rhs, where vars is the
// range [start, end) of its variable arena: Solver.xorVars for the stored
// rows, Solver.echVars for the rows of the AddXor-time echelon. vars are
// distinct and sorted ascending; rows are immutable once stored (reason
// indices into xorRows stay valid for the solver's lifetime). Echelon
// rows are never watched or used as reasons — they exist only so new rows
// can be tested for linear dependence and inconsistency without
// densifying the rows search propagates over.
type xorRow struct {
	start, end int32
	rhs        bool
	watch      [2]int32 // stored rows: the two watched variables, always distinct row members
}

// AddXor adds the parity constraint "XOR of the literal values = rhs".
// Negated literals fold their sign into rhs, duplicate variables cancel,
// and level-0 assignments fold into rhs (they never backtrack). A scratch
// copy is then Gauss-reduced against the echelon: a dependent row stores
// nothing, an inconsistent one fails the solver, a unit remainder enqueues
// its forced literal. Independent rows extend the echelon with their
// reduced form but are stored and watched in their original sparse form —
// reduction would chain circuit rows together into dense rows whose
// implications carry near-full-width reasons, wrecking conflict analysis.
// Like AddClause it returns false when the solver becomes (or already is)
// inconsistent at the top level.
func (s *Solver) AddXor(lits []cnf.Lit, rhs bool) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	vars := s.xorIn[:0]
	for _, l := range lits {
		s.ensureVars(l.Var())
		if l.Sign() {
			rhs = !rhs
		}
		vars = append(vars, int32(l.Var()))
	}
	s.xorIn = vars
	slices.Sort(vars)
	// Cancel duplicate pairs: v ⊕ v = 0.
	out := vars[:0]
	for i := 0; i < len(vars); {
		if i+1 < len(vars) && vars[i] == vars[i+1] {
			i += 2
			continue
		}
		out = append(out, vars[i])
		i++
	}
	vars = out
	vars, rhs = s.xorFoldAssigned(vars, rhs)
	if len(vars) <= 1 {
		return s.xorFinishSmall(vars, rhs)
	}

	// Gauss-reduce a scratch copy against the echelon to fixpoint: fold
	// any level-0 assignments the merge reintroduced, then cancel the
	// LARGEST variable against the echelon row with the same pivot. Each
	// pivot step strictly lowers the largest variable, so this terminates.
	// Pivoting on the largest variable makes the reduction run in
	// definition order — encoders allocate a gate's output after its
	// inputs — so reducing a row substitutes already-defined XOR outputs
	// by their transitive supports instead of chaining unrelated rows
	// together through shared inputs. For the unrolled keystream generator
	// the fixpoint expresses every cycle's parity bit directly over the
	// seed variables.
	if n := len(s.assigns); len(s.xorPivot) < n {
		old := len(s.xorPivot)
		s.xorPivot = slices.Grow(s.xorPivot, n-old)[:n]
		clear(s.xorPivot[old:])
	}
	// The reduction alternates between two reused buffers: each merge
	// writes the sum into the buffer the row is not in.
	rv, spare := append(s.xorRedA[:0], vars...), s.xorRedB
	rrhs := rhs
	for {
		rv, rrhs = s.xorFoldAssigned(rv, rrhs)
		if len(rv) == 0 {
			break
		}
		ei := s.xorPivot[rv[len(rv)-1]]
		if ei == 0 {
			break
		}
		ech := s.xorEch[ei-1]
		if ech.rhs {
			rrhs = !rrhs
		}
		rv, spare = xorMerge(spare[:0], rv, s.echVars[ech.start:ech.end]), rv
	}
	s.xorRedA, s.xorRedB = rv, spare
	if len(rv) <= 1 {
		// Linearly dependent modulo a possible forced literal: the stored
		// system plus that assignment already implies the new row, so it
		// stores nothing.
		return s.xorFinishSmall(rv, rrhs)
	}
	s.xorPivot[rv[len(rv)-1]] = int32(len(s.xorEch)) + 1
	start := int32(len(s.echVars))
	s.echVars = append(s.echVars, rv...)
	s.xorEch = append(s.xorEch, xorRow{start: start, end: int32(len(s.echVars)), rhs: rrhs})

	s.xorStore(vars, rhs)
	return true
}

// xorStore attaches a normalized row (≥2 distinct sorted unassigned
// variables) to the watch lists.
func (s *Solver) xorStore(vars []int32, rhs bool) {
	start := int32(len(s.xorVars))
	s.xorVars = append(s.xorVars, vars...)
	ri := int32(len(s.xorRows))
	s.xorRows = append(s.xorRows, xorRow{
		start: start, end: int32(len(s.xorVars)), rhs: rhs,
		watch: [2]int32{vars[0], vars[1]},
	})
	s.xwatches[vars[0]] = append(s.xwatches[vars[0]], ri)
	s.xwatches[vars[1]] = append(s.xwatches[vars[1]], ri)
}

// xorFoldAssigned drops level-0 assigned variables from a row, folding
// their values into rhs. Must be called at decision level 0.
func (s *Solver) xorFoldAssigned(vars []int32, rhs bool) ([]int32, bool) {
	n := 0
	for _, v := range vars {
		switch s.assigns[v] {
		case lTrue:
			rhs = !rhs
		case lFalse:
			// drop
		default:
			vars[n] = v
			n++
		}
	}
	return vars[:n], rhs
}

// xorFinishSmall resolves a row reduced to ≤1 variables: empty rows are
// tautological or inconsistent, unit rows force their variable at level 0.
func (s *Solver) xorFinishSmall(vars []int32, rhs bool) bool {
	if len(vars) == 0 {
		if rhs {
			s.ok = false
			return false
		}
		return true
	}
	s.uncheckedEnqueue(cnf.MkLit(int(vars[0]), !rhs), crefNone)
	if s.propagate() != crefNone {
		s.ok = false
		return false
	}
	return true
}

// xorMerge appends to out the symmetric difference of two sorted variable
// lists (the GF(2) sum of the two rows) and returns it.
func xorMerge(out, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// NumXors returns the number of parity rows currently stored and watched
// (linearly dependent additions store nothing).
func (s *Solver) NumXors() int { return len(s.xorRows) }

// propagateXor scans every XOR row watching the just-assigned variable of
// p. Unit rows enqueue their forced literal; a violated row returns a
// synthesized conflict clause (all literals false under the current
// assignment, including at least one at the current decision level — the
// trigger variable itself).
func (s *Solver) propagateXor(p cnf.Lit) cref {
	v := int32(p.Var())
	ws := s.xwatches[v]
	n := 0
	for i := 0; i < len(ws); i++ {
		ri := ws[i]
		row := &s.xorRows[ri]
		vars := s.xorVars[row.start:row.end]
		parity := row.rhs
		var unassigned int32 = -1
		count := 0
		for _, u := range vars {
			switch s.assigns[u] {
			case lUndef:
				count++
				unassigned = u
			case lTrue:
				parity = !parity
			}
		}
		switch {
		case count == 0:
			// parity is rhs ⊕ sum(values): true means the row is violated.
			if parity {
				s.Stats.XorConflicts++
				for ; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.xwatches[v] = ws[:n]
				return s.xorConflictClause(vars)
			}
			ws[n] = ri
			n++
		case count == 1:
			// The remaining variable must restore the parity.
			s.Stats.XorPropagations++
			s.reasonX[unassigned] = ri + 1
			s.uncheckedEnqueue(cnf.MkLit(int(unassigned), !parity), crefNone)
			ws[n] = ri
			n++
		default:
			// ≥2 unassigned: move this watch onto an unassigned variable so
			// the next relevant assignment re-triggers the scan.
			moved := false
			if row.watch[0] == v || row.watch[1] == v {
				slot := 0
				if row.watch[1] == v {
					slot = 1
				}
				other := row.watch[1-slot]
				for _, u := range vars {
					if u != other && s.assigns[u] == lUndef {
						row.watch[slot] = u
						s.xwatches[u] = append(s.xwatches[u], ri)
						moved = true
						break
					}
				}
			}
			if !moved {
				ws[n] = ri
				n++
			}
		}
	}
	s.xwatches[v] = ws[:n]
	return crefNone
}

// xorConflictClause materializes a violated row as a clause in the
// conflict scratch buffer: one literal per row variable, each false under
// the current assignment.
func (s *Solver) xorConflictClause(vars []int32) cref {
	lits := s.xorConfl[:0]
	for _, u := range vars {
		lits = append(lits, cnf.MkLit(int(u), s.assigns[u] == lTrue))
	}
	s.xorConfl = lits
	return crefXorConfl
}

// xorReasonClause materializes the reason for an XOR-implied variable v in
// the reason scratch buffer: the implied literal (true under the current
// assignment) first, then the falsified antecedent literals — the shape
// analyze, minimization, and analyzeFinal expect from CNF reasons. The
// buffer holds one reason at a time, which is all they read at once.
// Synthesized reasons never enter the clause database, so reduceDB and
// lockedVar are unaffected.
func (s *Solver) xorReasonClause(v int, vars []int32) cref {
	lits := append(s.xorReason[:0], cnf.MkLit(v, s.assigns[v] == lFalse))
	for _, u := range vars {
		if int(u) == v {
			continue
		}
		lits = append(lits, cnf.MkLit(int(u), s.assigns[u] == lTrue))
	}
	s.xorReason = lits
	return crefXorReason
}

// reasonFor returns the reason clause of an assigned variable: the stored
// CNF reason, a lazily materialized XOR reason, or crefNone for decisions
// and top-level facts. A stored binary reason is first put in the order
// the long-clause path would have left it, implied literal first.
func (s *Solver) reasonFor(v int) cref {
	if r := s.reason[v]; r != crefNone {
		if s.size(r) == 2 && s.ca[r+1].Var() != v {
			s.ca[r+1], s.ca[r+2] = s.ca[r+2], s.ca[r+1]
		}
		return r
	}
	if ri := s.reasonX[v]; ri != 0 {
		row := s.xorRows[ri-1]
		return s.xorReasonClause(v, s.xorVars[row.start:row.end])
	}
	return crefNone
}
