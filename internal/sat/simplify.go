package sat

// Simplify performs level-0 inprocessing: after completing top-level unit
// propagation it removes every clause satisfied by the level-0 trail,
// strengthens the remainder by deleting their falsified literals, and
// compacts the watcher lists of the removed clauses. Both the problem and
// learnt databases are processed. XOR rows are left untouched — they
// self-reduce against assigned variables during propagation and carry
// their own watch scheme.
//
// The attack loop calls this between DIPs: each oracle response is
// asserted as units, whose consequences permanently satisfy or shorten a
// swath of the clauses added for earlier circuit copies. Removing them
// here keeps propagation from revisiting dead clauses on every later
// solve.
//
// Simplify is an equivalence-preserving transformation, so search results
// (and candidate sets) are unchanged; only the traversal cost drops. It
// returns false if the formula is already unsatisfiable at the top level.
func (s *Solver) Simplify() bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.ok = false
		return false
	}
	s.Stats.SimplifyCalls++
	s.clauses = s.cleanDB(s.clauses)
	s.learnts = s.cleanDB(s.learnts)
	// Counters changed outside a Solve call: deliver them to the telemetry
	// hook now rather than at the next solve boundary.
	s.FlushHook()
	return true
}

// cleanDB drops satisfied clauses from cs and strengthens survivors,
// preserving order. After complete level-0 propagation a non-satisfied
// clause cannot have an assigned watched literal (it would have been unit),
// so strengthening only ever trims positions >= 2 and the watch lists of
// survivors stay valid as-is.
func (s *Solver) cleanDB(cs []*clause) []*clause {
	kept := cs[:0]
	for _, c := range cs {
		satisfied := false
		for _, l := range c.lits {
			if s.value(l) == lTrue {
				satisfied = true
				break
			}
		}
		if satisfied {
			if s.locked(c) {
				// The clause is the stored reason of a level-0 literal.
				// Level-0 assignments are permanent and never re-examined
				// by conflict analysis, so the pointer can be dropped
				// rather than dangled.
				s.reason[c.lits[0].Var()] = nil
			}
			s.detach(c)
			s.Stats.SimplifyRemoved++
			continue
		}
		n := 2
		for k := 2; k < len(c.lits); k++ {
			if s.value(c.lits[k]) == lFalse {
				s.Stats.SimplifyStrengthened++
				continue
			}
			c.lits[n] = c.lits[k]
			n++
		}
		c.lits = c.lits[:n]
		kept = append(kept, c)
	}
	// Zero the tail so removed clauses are collectable.
	for i := len(kept); i < len(cs); i++ {
		cs[i] = nil
	}
	return kept
}
