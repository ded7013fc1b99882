package sat

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dynunlock/internal/cnf"
)

// circuit builds AIG-shaped CNF on a solver: each AND gate is the Tseitin
// triple (two binaries, one ternary), and each XOR gate is a native parity
// row or, with native false, its four ternary clauses.
type circuit struct {
	s      *Solver
	native bool
}

func (c circuit) fresh() cnf.Lit { return cnf.MkLit(c.s.NewVar(), false) }

func (c circuit) and(a, b cnf.Lit) cnf.Lit {
	z := c.fresh()
	c.s.AddClause(z.Not(), a)
	c.s.AddClause(z.Not(), b)
	c.s.AddClause(z, a.Not(), b.Not())
	return z
}

func (c circuit) or(a, b cnf.Lit) cnf.Lit { return c.and(a.Not(), b.Not()).Not() }

func (c circuit) xor(a, b cnf.Lit) cnf.Lit {
	z := c.fresh()
	if c.native {
		c.s.AddXor([]cnf.Lit{z, a, b}, false)
	} else {
		c.s.AddClause(z.Not(), a, b)
		c.s.AddClause(z.Not(), a.Not(), b.Not())
		c.s.AddClause(z, a.Not(), b)
		c.s.AddClause(z, a, b.Not())
	}
	return z
}

// mul is a shift-and-add array multiplier: AND partial products summed
// by ripple-carry rows of full adders. It returns the len(a)+len(b)
// product bits, least significant first.
func (c circuit) mul(a, b []cnf.Lit) []cnf.Lit {
	out := make([]cnf.Lit, 0, len(a)+len(b))
	acc := make([]cnf.Lit, len(a))
	for i := range a {
		acc[i] = c.and(a[i], b[0])
	}
	for j := 1; j < len(b); j++ {
		out = append(out, acc[0])
		next := make([]cnf.Lit, len(a))
		var carry cnf.Lit = -1
		for i := range a {
			pp := c.and(a[i], b[j])
			x := pp
			var y cnf.Lit = -1
			if i+1 < len(acc) {
				y = acc[i+1]
			}
			switch {
			case y == -1 && carry == -1:
				next[i] = x
			case y == -1 || carry == -1:
				other := y
				if other == -1 {
					other = carry
				}
				next[i], carry = c.xor(x, other), c.and(x, other)
			default:
				t := c.xor(x, y)
				next[i] = c.xor(t, carry)
				carry = c.or(c.and(x, y), c.and(t, carry))
			}
		}
		if carry == -1 {
			carry = c.fresh()
			c.s.AddClause(carry.Not())
		}
		acc = append(next, carry)
	}
	return append(out, acc...)
}

func (c circuit) vec(n int) []cnf.Lit {
	v := make([]cnf.Lit, n)
	for i := range v {
		v[i] = c.fresh()
	}
	return v
}

// notEqual returns the clause "act → bits ≠ val" (val's bit i is bits[i]).
func notEqual(act cnf.Lit, bits []cnf.Lit, val uint64) []cnf.Lit {
	cl := []cnf.Lit{act.Not()}
	for i, b := range bits {
		cl = append(cl, cnf.MkLit(b.Var(), val>>i&1 == 1))
	}
	return cl
}

func modelValue(s *Solver, bits []cnf.Lit) uint64 {
	var v uint64
	for i, b := range bits {
		if s.Value(b.Var()) != b.Sign() {
			v |= 1 << i
		}
	}
	return v
}

// trajectory runs an incremental session on two multipliers over the same
// inputs. It first proves their commutativity miter UNSAT under an
// activation assumption, which takes a few thousand conflicts and fills
// the learnt database. It then fixes the product to a semiprime at level 0,
// simplifies, and factors it under another assumption, blocking each
// factorization found and simplifying again until the blocked query is
// UNSAT. Last it re-solves the miter and the first factoring query
// through the surviving learnt clauses. It returns one line per solve
// holding the status, every Stats counter, a hash of the model and the
// final conflict, and the solver. A non-nil hook is installed before the
// first clause.
func trajectory(cfg Config, native, bump bool, hook func(*Solver)) ([]string, *Solver) {
	const w = 4
	const n = 13 * 11
	s := NewWithConfig(cfg)
	if hook != nil {
		s.SetHook(&Hook{Every: 16, OnSample: func(Stats, int) { hook(s) }})
	}
	c := circuit{s, native}
	a, b := c.vec(w), c.vec(w)
	if bump {
		for _, l := range a {
			s.BumpActivity(l.Var(), 1)
		}
	}
	var lines []string
	record := func(st Status) {
		model := "-"
		if st == Sat {
			h := fnv.New64a()
			for _, v := range s.Model() {
				if v {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			model = fmt.Sprintf("%d×%d/%016x", modelValue(s, a), modelValue(s, b), h.Sum64())
		}
		x := s.Stats
		lines = append(lines, fmt.Sprintf("%v d=%d p=%d c=%d r=%d l=%d rm=%d xp=%d xc=%d sc=%d sr=%d ss=%d model=%s confl=%v",
			st, x.Decisions, x.Propagations, x.Conflicts, x.Restarts, x.Learnt, x.Removed,
			x.XorPropagations, x.XorConflicts, x.SimplifyCalls, x.SimplifyRemoved, x.SimplifyStrengthened,
			model, s.Conflict()))
	}

	var p1 []cnf.Lit
	var miter cnf.Lit
	for round := 0; round < 6; round++ {
		// A fresh pair of multiplier copies per round, as the attack adds
		// circuit copies per DIP.
		var p2 []cnf.Lit
		p1, p2 = c.mul(a, b), c.mul(b, a)
		miter = c.fresh()
		diff := []cnf.Lit{miter.Not()}
		for i := range p1 {
			diff = append(diff, c.xor(p1[i], p2[i]))
		}
		s.AddClause(diff...)
		record(s.Solve(miter))
	}

	for i, p := range p1 {
		s.AddClause(cnf.MkLit(p.Var(), p.Sign() != (n>>i&1 == 0)))
	}
	s.Simplify()
	acts := []cnf.Lit{c.fresh()}
	// Exclude the trivial factorizations 1·n (which cannot fit w bits, so
	// the clauses are redundant but add long activated clauses).
	s.AddClause(notEqual(acts[0], a, 1)...)
	s.AddClause(notEqual(acts[0], b, 1)...)
	for round := 0; round < 4; round++ {
		st := s.Solve(acts...)
		record(st)
		if st != Sat {
			break
		}
		act := c.fresh()
		s.AddClause(notEqual(act, a, modelValue(s, a))...)
		acts = append(acts, act)
		s.Simplify()
	}
	record(s.Solve(miter))
	record(s.Solve(acts[0]))
	return lines, s
}

// The search trajectory is pinned: every counter, model and final
// conflict of these incremental sessions was recorded before the clause
// database moved into its arena, and must not change with its layout. The
// sessions reach binary clauses (AND triples), parity rows, assumptions,
// Simplify between solves, several reduceDB rounds and arena compaction.
func TestSearchTrajectoryPinned(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		native bool
		bump   bool
		want   []string
	}{
		{"cnf", Config{}, false, false, []string{
			"UNSAT d=557 p=21646 c=462 r=3 l=459 rm=0 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-137]",
			"UNSAT d=1102 p=63102 c=915 r=6 l=910 rm=0 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-274]",
			"UNSAT d=1641 p=121756 c=1348 r=9 l=1341 rm=494 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-411]",
			"UNSAT d=2283 p=211216 c=1891 r=13 l=1881 rm=1095 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-548]",
			"UNSAT d=2841 p=324029 c=2375 r=16 l=2362 rm=1095 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-685]",
			"UNSAT d=3428 p=455469 c=2853 r=19 l=2837 rm=1729 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-822]",
			"SAT d=3440 p=457404 c=2859 r=19 l=2843 rm=1729 xp=0 xc=0 sc=1 sr=771 ss=182 model=13×11/5109899edc08ca4c confl=[]",
			"SAT d=3449 p=458705 c=2863 r=19 l=2847 rm=1729 xp=0 xc=0 sc=2 sr=771 ss=182 model=11×13/4093949484a46a4b confl=[]",
			"UNSAT d=3449 p=459952 c=2864 r=19 l=2847 rm=1729 xp=0 xc=0 sc=3 sr=771 ss=182 model=- confl=[-833 -832]",
			"UNSAT d=3449 p=459952 c=2864 r=19 l=2847 rm=1729 xp=0 xc=0 sc=3 sr=771 ss=182 model=- confl=[-822]",
			"SAT d=3451 p=460743 c=2864 r=19 l=2847 rm=1729 xp=0 xc=0 sc=3 sr=771 ss=182 model=11×13/5f2fc35d63609d71 confl=[]",
		}},
		{"xor", Config{}, true, false, []string{
			"UNSAT d=604 p=21402 c=457 r=3 l=455 rm=0 xp=9046 xc=223 sc=0 sr=0 ss=0 model=- confl=[-137]",
			"UNSAT d=1115 p=60683 c=894 r=6 l=891 rm=0 xp=24837 xc=418 sc=0 sr=0 ss=0 model=- confl=[-274]",
			"UNSAT d=1805 p=145513 c=1498 r=10 l=1492 rm=601 xp=54859 xc=714 sc=0 sr=0 ss=0 model=- confl=[-411]",
			"UNSAT d=2304 p=221019 c=1907 r=13 l=1899 rm=1203 xp=83880 xc=944 sc=0 sr=0 ss=0 model=- confl=[-548]",
			"UNSAT d=2878 p=325833 c=2385 r=16 l=2375 rm=1203 xp=122294 xc=1214 sc=0 sr=0 ss=0 model=- confl=[-685]",
			"UNSAT d=3352 p=419305 c=2754 r=18 l=2741 rm=1789 xp=159959 xc=1439 sc=0 sr=0 ss=0 model=- confl=[-822]",
			"SAT d=3375 p=421805 c=2767 r=18 l=2752 rm=1789 xp=160564 xc=1445 sc=1 sr=596 ss=227 model=11×13/50d03eb3d5eeb908 confl=[]",
			"SAT d=3377 p=422983 c=2769 r=18 l=2754 rm=1789 xp=160922 xc=1446 sc=2 sr=743 ss=363 model=13×11/bbff25efe2efc0d7 confl=[]",
			"UNSAT d=3377 p=423765 c=2769 r=18 l=2754 rm=1789 xp=161183 xc=1446 sc=3 sr=743 ss=363 model=- confl=[-833 -832 -831]",
			"UNSAT d=3377 p=423765 c=2769 r=18 l=2754 rm=1789 xp=161183 xc=1446 sc=3 sr=743 ss=363 model=- confl=[-822]",
			"SAT d=3379 p=424547 c=2769 r=18 l=2754 rm=1789 xp=161444 xc=1446 sc=3 sr=743 ss=363 model=13×11/624e4d9e9d64ad55 confl=[]",
		}},
		{"xor-bump", Config{}, true, true, []string{
			"UNSAT d=678 p=24587 c=509 r=4 l=507 rm=0 xp=9273 xc=248 sc=0 sr=0 ss=0 model=- confl=[-137]",
			"UNSAT d=1214 p=68744 c=972 r=7 l=969 rm=0 xp=27465 xc=502 sc=0 sr=0 ss=0 model=- confl=[-274]",
			"UNSAT d=1609 p=115175 c=1275 r=9 l=1269 rm=499 xp=46095 xc=693 sc=0 sr=0 ss=0 model=- confl=[-411]",
			"UNSAT d=2297 p=222937 c=1859 r=13 l=1852 rm=499 xp=85051 xc=1016 sc=0 sr=0 ss=0 model=- confl=[-548]",
			"UNSAT d=2809 p=322551 c=2322 r=16 l=2313 rm=1176 xp=125720 xc=1276 sc=0 sr=0 ss=0 model=- confl=[-685]",
			"UNSAT d=3327 p=418971 c=2730 r=19 l=2719 rm=1745 xp=165749 xc=1483 sc=0 sr=0 ss=0 model=- confl=[-822]",
			"SAT d=3330 p=419792 c=2731 r=19 l=2719 rm=1745 xp=166013 xc=1484 sc=1 sr=623 ss=183 model=13×11/5109899edc08ca4c confl=[]",
			"SAT d=3333 p=420944 c=2733 r=19 l=2721 rm=1745 xp=166349 xc=1484 sc=2 sr=629 ss=198 model=11×13/4093949484a46a4b confl=[]",
			"UNSAT d=3334 p=422774 c=2735 r=19 l=2723 rm=1745 xp=166868 xc=1485 sc=3 sr=629 ss=198 model=- confl=[-833 -832 -831]",
			"UNSAT d=3334 p=422774 c=2735 r=19 l=2723 rm=1745 xp=166868 xc=1485 sc=3 sr=629 ss=198 model=- confl=[-822]",
			"SAT d=3336 p=423568 c=2735 r=19 l=2723 rm=1745 xp=167130 xc=1485 sc=3 sr=629 ss=198 model=11×13/5f2fc35d63609d71 confl=[]",
		}},
		{"cnf-diversified", Config{RandomSeed: 7, RestartPolicy: RestartGeometric, PhaseInit: PhaseRandom}, false, false, []string{
			"UNSAT d=651 p=27532 c=557 r=3 l=555 rm=0 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-137]",
			"UNSAT d=1217 p=68031 c=1018 r=5 l=1013 rm=0 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-274]",
			"UNSAT d=1827 p=132353 c=1517 r=8 l=1508 rm=507 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-411]",
			"UNSAT d=2564 p=230736 c=2106 r=11 l=2096 rm=1008 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-548]",
			"UNSAT d=3195 p=350007 c=2629 r=14 l=2617 rm=1552 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-685]",
			"UNSAT d=3842 p=482508 c=3144 r=17 l=3129 rm=2085 xp=0 xc=0 sc=0 sr=0 ss=0 model=- confl=[-822]",
			"SAT d=3858 p=484276 c=3152 r=17 l=3133 rm=2085 xp=0 xc=0 sc=1 sr=640 ss=205 model=13×11/5109899edc08ca4c confl=[]",
			"SAT d=3859 p=485280 c=3153 r=17 l=3134 rm=2085 xp=0 xc=0 sc=2 sr=950 ss=444 model=11×13/4093949484a46a4b confl=[]",
			"UNSAT d=3859 p=486041 c=3153 r=17 l=3134 rm=2085 xp=0 xc=0 sc=3 sr=950 ss=444 model=- confl=[-833 -832]",
			"UNSAT d=3859 p=486041 c=3153 r=17 l=3134 rm=2085 xp=0 xc=0 sc=3 sr=950 ss=444 model=- confl=[-822]",
			"SAT d=3861 p=486802 c=3153 r=17 l=3134 rm=2085 xp=0 xc=0 sc=3 sr=950 ss=444 model=11×13/5f2fc35d63609d71 confl=[]",
		}},
		{"xor-diversified", Config{RandomSeed: 11, VarDecay: 0.9, RestartPolicy: RestartLuby, PhaseInit: PhaseTrue}, true, false, []string{
			"UNSAT d=467 p=16231 c=354 r=2 l=351 rm=0 xp=6682 xc=191 sc=0 sr=0 ss=0 model=- confl=[-137]",
			"UNSAT d=990 p=47860 c=759 r=5 l=753 rm=0 xp=19719 xc=390 sc=0 sr=0 ss=0 model=- confl=[-274]",
			"UNSAT d=1462 p=101355 c=1160 r=7 l=1151 rm=0 xp=40484 xc=622 sc=0 sr=0 ss=0 model=- confl=[-411]",
			"UNSAT d=1948 p=169933 c=1577 r=10 l=1564 rm=576 xp=66029 xc=820 sc=0 sr=0 ss=0 model=- confl=[-548]",
			"UNSAT d=2467 p=264639 c=1987 r=13 l=1973 rm=1073 xp=101092 xc=1022 sc=0 sr=0 ss=0 model=- confl=[-685]",
			"UNSAT d=2928 p=357626 c=2331 r=15 l=2315 rm=1678 xp=139705 xc=1210 sc=0 sr=0 ss=0 model=- confl=[-822]",
			"SAT d=2940 p=359410 c=2338 r=15 l=2320 rm=1678 xp=140143 xc=1212 sc=1 sr=402 ss=143 model=11×13/50d03eb3d5eeb908 confl=[]",
			"SAT d=2942 p=361017 c=2340 r=15 l=2322 rm=1678 xp=140573 xc=1213 sc=2 sr=425 ss=226 model=13×11/bbff25efe2efc0d7 confl=[]",
			"UNSAT d=2942 p=361806 c=2340 r=15 l=2322 rm=1678 xp=140830 xc=1213 sc=3 sr=425 ss=226 model=- confl=[-833 -832 -831]",
			"UNSAT d=2942 p=361806 c=2340 r=15 l=2322 rm=1678 xp=140830 xc=1213 sc=3 sr=425 ss=226 model=- confl=[-822]",
			"SAT d=2945 p=362595 c=2340 r=15 l=2322 rm=1678 xp=141087 xc=1213 sc=3 sr=425 ss=226 model=13×11/624e4d9e9d64ad55 confl=[]",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, s := trajectory(tc.cfg, tc.native, tc.bump, nil)
			if s.compactions == 0 {
				t.Errorf("the session never compacted the clause arena")
			}
			if fmt.Sprint(got) == fmt.Sprint(tc.want) {
				return
			}
			for i := range max(len(got), len(tc.want)) {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(tc.want) {
					w = tc.want[i]
				}
				if g != w {
					t.Errorf("solve %d:\n got %s\nwant %s", i, g, w)
				}
			}
		})
	}
}

// BenchmarkSolveMiter builds and solves the commutativity miter of two
// 5-bit multipliers under its activation assumption: AND triples plus
// native XOR rows, the shape of the attack's miter. It takes about 2,000
// conflicts.
func BenchmarkSolveMiter(b *testing.B) {
	b.ReportAllocs()
	var conflicts uint64
	for i := 0; i < b.N; i++ {
		s := New()
		c := circuit{s, true}
		x, y := c.vec(5), c.vec(5)
		p1, p2 := c.mul(x, y), c.mul(y, x)
		act := c.fresh()
		diff := []cnf.Lit{act.Not()}
		for j := range p1 {
			diff = append(diff, c.xor(p1[j], p2[j]))
		}
		s.AddClause(diff...)
		if s.Solve(act) != Unsat {
			b.Fatal("commutativity miter must be UNSAT")
		}
		conflicts += s.Stats.Conflicts
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
}
