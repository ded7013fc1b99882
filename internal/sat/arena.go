package sat

import (
	"math"

	"dynunlock/internal/cnf"
)

// The clause database lives in one pointer-free arena, Solver.ca. Each
// clause is a header word followed by its literals; a learnt clause has
// three more words before its header, its LBD and the two halves of its
// float64 activity:
//
//	problem: [hdr] [lit0] [lit1] …
//	learnt:  [lbd] [act lo] [act hi] [hdr] [lit0] [lit1] …
//
// hdr holds the literal count above two flag bits. A cref is the index of
// a clause's header word; index 0 is a sentinel, so the zero cref means
// "no clause". Deleting or strengthening a clause leaves its words dead in
// place; compact rebuilds the arena once dead words outnumber live ones.

// cref refers to a clause: the arena index of its header word, or one of
// the scratch references below.
type cref uint32

const (
	crefNone cref = 0
	// crefXorConfl and crefXorReason name the two scratch clauses that
	// parity rows materialize (xor.go): a violated row's conflict clause
	// and an XOR-implied variable's reason. Their literals live in
	// Solver.xorConfl and Solver.xorReason, never in the arena.
	crefXorConfl  cref = math.MaxUint32
	crefXorReason cref = math.MaxUint32 - 1

	// binFlag marks the watchers of a clause attached with two literals
	// (arena references stay below it). Such a watcher's blocker is the
	// clause's other literal, so propagate resolves it without reading
	// the arena.
	binFlag cref = 1 << 31
)

// Header flags and the learnt-clause prefix length.
const (
	hdrLearnt  = 1
	hdrDeleted = 2
	hdrShift   = 2

	learntExtra = 3 // lbd, act lo, act hi
)

// watcher is one watch-list entry: the watched clause (with binFlag for a
// clause attached as binary) and a blocker literal from that clause whose
// truth satisfies the clause without a visit.
type watcher struct {
	ref     cref
	blocker cnf.Lit
}

// alloc stores a clause in the arena and returns its reference. The
// caller attaches it and, for a learnt clause, sets its LBD.
func (s *Solver) alloc(lits []cnf.Lit, learnt bool) cref {
	if learnt {
		s.ca = append(s.ca, 0, 0, 0)
	}
	if uint64(len(s.ca)+1+len(lits)) >= uint64(binFlag) {
		panic("sat: clause arena exceeds 2^31 words")
	}
	cr := cref(len(s.ca))
	hdr := cnf.Lit(len(lits) << hdrShift)
	if learnt {
		hdr |= hdrLearnt
	}
	s.ca = append(s.ca, hdr)
	s.ca = append(s.ca, lits...)
	return cr
}

// lits returns the literals of a clause: a view into the arena, or a
// scratch XOR clause.
func (s *Solver) lits(cr cref) []cnf.Lit {
	switch cr {
	case crefXorConfl:
		return s.xorConfl
	case crefXorReason:
		return s.xorReason
	}
	end := cr + 1 + cref(s.ca[cr]>>hdrShift)
	return s.ca[cr+1 : end : end]
}

func (s *Solver) size(cr cref) int { return int(s.ca[cr] >> hdrShift) }

func (s *Solver) isLearnt(cr cref) bool {
	return cr < crefXorReason && s.ca[cr]&hdrLearnt != 0
}

// setSize shortens a clause in place; the dropped tail words become dead.
func (s *Solver) setSize(cr cref, n int) {
	s.wasted += s.size(cr) - n
	s.ca[cr] = cnf.Lit(n<<hdrShift) | s.ca[cr]&(1<<hdrShift-1)
}

func (s *Solver) clauseLBD(cr cref) int32 { return int32(s.ca[cr-3]) }

func (s *Solver) setLBD(cr cref, lbd int32) { s.ca[cr-3] = cnf.Lit(lbd) }

func (s *Solver) act(cr cref) float64 {
	return math.Float64frombits(uint64(uint32(s.ca[cr-2])) | uint64(uint32(s.ca[cr-1]))<<32)
}

func (s *Solver) setAct(cr cref, a float64) {
	b := math.Float64bits(a)
	s.ca[cr-2], s.ca[cr-1] = cnf.Lit(uint32(b)), cnf.Lit(uint32(b>>32))
}

// free marks a detached clause dead.
func (s *Solver) free(cr cref) {
	n := 1 + s.size(cr)
	if s.ca[cr]&hdrLearnt != 0 {
		n += learntExtra
	}
	s.ca[cr] |= hdrDeleted
	s.wasted += n
}

// maybeCompact rebuilds the arena once its dead words outnumber its live
// ones.
func (s *Solver) maybeCompact() {
	if s.wasted > len(s.ca)-s.wasted {
		s.compact()
	}
}

// compact copies the live clauses into a fresh arena in list order
// (problem clauses, then learnts) and rewrites every reference to them
// in place: the clause lists, the watchers and the reasons of assigned
// variables. No list is reordered, so the search is unaffected. Each old
// clause's first literal word holds its new reference while the
// references are rewritten.
func (s *Solver) compact() {
	to := make([]cnf.Lit, 1, len(s.ca)-s.wasted)
	move := func(cr cref) cref {
		start, end := int(cr), int(cr)+1+s.size(cr)
		if s.ca[cr]&hdrLearnt != 0 {
			start -= learntExtra
		}
		nr := cref(len(to) + int(cr) - start)
		to = append(to, s.ca[start:end]...)
		s.ca[cr+1] = cnf.Lit(nr)
		return nr
	}
	for i, cr := range s.clauses {
		s.clauses[i] = move(cr)
	}
	for i, cr := range s.learnts {
		s.learnts[i] = move(cr)
	}
	for _, ws := range s.watches {
		for i, w := range ws {
			ws[i].ref = cref(s.ca[w.ref&^binFlag+1]) | w.ref&binFlag
		}
	}
	for _, p := range s.trail {
		if r := s.reason[p.Var()]; r != crefNone {
			s.reason[p.Var()] = cref(s.ca[r+1])
		}
	}
	s.ca = to
	s.wasted = 0
	s.compactions++
}
