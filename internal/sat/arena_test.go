package sat

import (
	"fmt"
	"testing"
)

// checkArena verifies the clause arena's invariants: every listed clause
// is live, of the right kind and listed once; every watcher names a live
// clause that watches that literal, and a binary watcher's blocker is the
// clause's other literal; every live clause has exactly its two watchers;
// every reason of an assigned variable is live and holds the variable's
// true literal; the dead-word count is exact and at most the live words.
func checkArena(s *Solver) error {
	live := map[cref]bool{}
	words := 1 // the sentinel
	for kind, list := range [][]cref{s.clauses, s.learnts} {
		for _, cr := range list {
			if cr == crefNone || int(cr) >= len(s.ca) {
				return fmt.Errorf("clause %d outside the arena (%d words)", cr, len(s.ca))
			}
			if live[cr] {
				return fmt.Errorf("clause %d listed twice", cr)
			}
			live[cr] = true
			hdr := s.ca[cr]
			if hdr&hdrDeleted != 0 {
				return fmt.Errorf("listed clause %d is deleted", cr)
			}
			if (hdr&hdrLearnt != 0) != (kind == 1) {
				return fmt.Errorf("clause %d: learnt flag %v in list %d", cr, hdr&hdrLearnt != 0, kind)
			}
			n := s.size(cr)
			if n < 2 || int(cr)+1+n > len(s.ca) {
				return fmt.Errorf("clause %d: size %d", cr, n)
			}
			words += 1 + n
			if kind == 1 {
				words += learntExtra
			}
		}
	}
	watchers := map[cref]int{}
	for wl, ws := range s.watches {
		for _, w := range ws {
			cr := w.ref &^ binFlag
			if !live[cr] {
				return fmt.Errorf("watch list %d names dead clause %d", wl, cr)
			}
			lits := s.lits(cr)
			if int(lits[0].Not()) != wl && int(lits[1].Not()) != wl {
				return fmt.Errorf("clause %d %v does not watch literal %d", cr, lits, wl)
			}
			if w.ref&binFlag != 0 {
				other := lits[0]
				if int(other.Not()) == wl {
					other = lits[1]
				}
				if len(lits) != 2 || w.blocker != other {
					return fmt.Errorf("binary watcher of clause %d %v: blocker %d", cr, lits, w.blocker)
				}
			}
			watchers[cr]++
		}
	}
	for cr := range live {
		if watchers[cr] != 2 {
			return fmt.Errorf("clause %d has %d watchers", cr, watchers[cr])
		}
	}
	for _, p := range s.trail {
		r := s.reason[p.Var()]
		if r == crefNone {
			continue
		}
		if !live[r] {
			return fmt.Errorf("reason of variable %d is dead clause %d", p.Var(), r)
		}
		found := false
		for _, l := range s.lits(r) {
			found = found || l == p
		}
		if !found {
			return fmt.Errorf("reason %d %v of %d lacks it", r, s.lits(r), p)
		}
	}
	if got := len(s.ca) - s.wasted; got != words {
		return fmt.Errorf("arena has %d words, %d dead: %d live, want %d", len(s.ca), s.wasted, got, words)
	}
	if s.wasted > words {
		return fmt.Errorf("%d dead words exceed %d live ones", s.wasted, words)
	}
	return nil
}

// The arena invariants hold inside the search (checked from the telemetry
// hook every 16 conflicts, with reasons at every decision level) and
// between the solves, simplifications and clause additions of sessions
// that delete enough clauses to compact the arena several times.
func TestArenaInvariants(t *testing.T) {
	for _, native := range []bool{false, true} {
		var err error
		checks := 0
		_, s := trajectory(Config{}, native, false, func(s *Solver) {
			checks++
			if err == nil {
				err = checkArena(s)
			}
		})
		if err == nil {
			err = checkArena(s)
		}
		if err != nil {
			t.Fatalf("native %v: %v", native, err)
		}
		if s.compactions < 2 || checks < 100 {
			t.Fatalf("native %v: %d compactions and %d checks, want churn", native, s.compactions, checks)
		}
		t.Logf("native %v: %d compactions, %d checks, %d arena words", native, s.compactions, checks, len(s.ca))
	}
}
