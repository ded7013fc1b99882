// The attack engine's solver instances. RunCtx builds max(1,
// Options.Portfolio) diversified solver/encoder instances and races every
// SAT call of the DIP loop and of candidate enumeration across them. The
// winning distinguishing input and oracle response — or blocking clause —
// are replayed into every instance, so all clause databases stay logically
// equivalent and any instance can win the next race.
//
// Instance 0 runs the zero sat.Config, so one instance is the sequential
// attack. Every race is context-scoped, whatever its width: it derives a
// child context, the first instance to return a definitive answer wins and
// cancels the child, and the losers' ctx watchers interrupt their searches
// — so cancelling the parent context (deadline, cmd-line -timeout, caller
// cancellation) tears the whole race down through the same mechanism.
//
// Diversification (sat.Diversify) varies the VSIDS decay, restart policy,
// initial phases, and random-decision seed per instance. SAT-call latency,
// not iteration count, dominates dynamic-scan attacks (ScanSAT, GF-Flush),
// so racing the solve is where the wall-clock parallelism is.
//
// Determinism: the *set* of enumerated keys is the full equivalence class
// of the oracle constraints, which is independent of which instance wins
// which race; only the DIP order, iteration count, and per-instance stats
// vary between runs. Tests assert candidate-set equality across portfolio
// sizes 1, 2, and 4.

package satattack

import (
	"context"
	"sort"
	"strconv"

	"dynunlock/internal/aig"
	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
)

// pfInstance is one diversified solver with its own encoding of the locked
// circuit. Encoding is deterministic, so variable numbering is identical
// across instances and models transfer between them as plain bit vectors.
type pfInstance struct {
	s     *sat.Solver
	e     *encode.Encoder
	x     []cnf.Lit
	k1    []cnf.Lit
	k2    []cnf.Lit
	miter cnf.Lit
}

type portfolio struct {
	l     *Locked
	insts []*pfInstance
	wins  []int
	// winCtr mirrors wins as live per-instance counters. Entries are nil
	// (no-op) when metrics are disabled or only one instance runs.
	winCtr []*metrics.Counter
	// aig, when non-nil, is the compacted arena every instance's copies
	// are encoded from (Options.AIG). The graph is read-only after
	// construction, so all instances share one.
	aig *aig.Graph
}

// emitted snapshots instance 0's problem size (variables; clauses plus
// native XOR rows) for encode-growth accounting.
func (p *portfolio) emitted() (uint64, uint64) {
	s := p.insts[0].s
	return uint64(s.NumVars()), uint64(s.NumClauses() + s.NumXors())
}

func newPortfolio(l *Locked, opts Options, mh *metrics.Handle) (*portfolio, error) {
	n := max(1, opts.Portfolio)
	p := &portfolio{l: l, wins: make([]int, n), winCtr: make([]*metrics.Counter, n)}
	if opts.AIG {
		// Stage one of the AIG pipeline: compile the locked view once into
		// a compacted arena shared by every circuit copy this attack emits.
		g, err := aig.FromCombView(l.View)
		if err != nil {
			return nil, err
		}
		p.aig = g
	}
	for i := 0; i < n; i++ {
		s := sat.NewWithConfig(sat.Diversify(i))
		s.ConflictBudget = opts.ConflictBudget
		installSolverMetrics(mh, opts.Search, s, i)
		if n > 1 {
			p.winCtr[i] = mh.Counter(metrics.MetricPortfolioWins, "instance", strconv.Itoa(i))
		}
		e := encode.NewWithConfig(s, encode.Config{NativeXor: opts.NativeXor})
		in := &pfInstance{
			s:  s,
			e:  e,
			x:  e.FreshVec(len(l.InIdx)),
			k1: e.FreshVec(len(l.KeyIdx)),
			k2: e.FreshVec(len(l.KeyIdx)),
		}
		y1 := l.encodeCopy(e, p.aig, in.x, in.k1)
		y2 := l.encodeCopy(e, p.aig, in.x, in.k2)
		in.miter = e.Miter(y1, y2)
		// Branch on key variables first: the miter search closes fastest
		// when the candidate keys are fixed before the shared inputs.
		for _, ks := range [][]cnf.Lit{in.k1, in.k2} {
			for _, kl := range ks {
				s.BumpActivity(kl.Var(), 1)
			}
		}
		p.insts = append(p.insts, in)
	}
	return p, nil
}

// race runs one SAT call on every instance and returns the index and status
// of the first definitive (Sat/Unsat) finisher. Instances solve
// concurrently under a child context of ctx: the winner cancels it to stop
// the losers, a parent cancellation or deadline stops the whole race the
// same way, and every loser is drained before race returns. One instance
// takes the same path. A call that returns Unknown on every instance (ctx
// stopped, or the conflict budget ran out) is won by no instance: the
// winner index is -1 and no win is counted.
func (p *portfolio) race(ctx context.Context, withMiter bool) (int, sat.Status) {
	type outcome struct {
		idx int
		st  sat.Status
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, len(p.insts))
	for i, in := range p.insts {
		in.s.ClearInterrupt()
		go func(i int, in *pfInstance) {
			if withMiter {
				ch <- outcome{i, in.s.SolveCtx(raceCtx, in.miter)}
			} else {
				ch <- outcome{i, in.s.SolveCtx(raceCtx)}
			}
		}(i, in)
	}
	winner, st := -1, sat.Unknown
	for range p.insts {
		o := <-ch
		if winner == -1 && o.st != sat.Unknown {
			winner, st = o.idx, o.st
			cancel() // losers stop via their ctx watchers
		}
	}
	for _, in := range p.insts {
		in.s.ClearInterrupt()
	}
	if winner >= 0 {
		p.wins[winner]++
		p.winCtr[winner].Inc()
	}
	return winner, st
}

// replayDIP asserts the oracle's response for a distinguishing input on
// both key copies of every instance. It returns instance 0's problem-size
// growth (encoding is deterministic, so every instance grows alike).
func (p *portfolio) replayDIP(dip, resp []bool) (dVars, dClauses uint64) {
	ev0, ec0 := p.emitted()
	for _, in := range p.insts {
		cx := in.e.ConstVec(dip)
		in.e.AssertEqualConst(p.l.encodeCopy(in.e, p.aig, cx, in.k1), resp)
		in.e.AssertEqualConst(p.l.encodeCopy(in.e, p.aig, cx, in.k2), resp)
	}
	ev1, ec1 := p.emitted()
	return ev1 - ev0, ec1 - ec0
}

// block adds a blocking clause for key k to every instance. It reports
// false when some instance proves the remaining space empty at top level.
func (p *portfolio) block(k []bool) bool {
	ok := true
	for _, in := range p.insts {
		if !in.s.AddClause(blockingClause(in.k1, k)...) {
			ok = false
		}
	}
	return ok
}

// enumerateFrom lists the keys consistent with the accumulated constraints
// via blocking clauses, starting from first, up to limit keys. exact
// reports that the list is the complete equivalence class. When a context
// or budget bound cut the enumeration short, the list is a valid but
// possibly incomplete prefix, reported inexact, and stop names the bound.
func (p *portfolio) enumerateFrom(ctx context.Context, first []bool, limit int) (keys [][]bool, exact bool, stop StopReason) {
	keys = [][]bool{append([]bool(nil), first...)}
	if !p.block(first) {
		return keys, true, StopNone
	}
	for len(keys) < limit {
		winner, st := p.race(ctx, false)
		switch st {
		case sat.Unknown:
			return keys, false, ctxStopReason(ctx)
		case sat.Unsat:
			return keys, true, StopNone
		}
		w := p.insts[winner]
		k := w.e.ModelBits(w.k1)
		keys = append(keys, k)
		if !p.block(k) {
			return keys, true, StopNone
		}
	}
	// Limit reached; check whether anything remains.
	_, st := p.race(ctx, false)
	if st == sat.Unknown {
		return keys, false, ctxStopReason(ctx)
	}
	return keys, st == sat.Unsat, StopNone
}

// statsSum returns the element-wise sum of every instance's solver
// counters: total work across the portfolio, not critical-path work.
func (p *portfolio) statsSum() sat.Stats {
	var sum sat.Stats
	for _, in := range p.insts {
		sum = addStats(sum, in.s.Stats)
	}
	return sum
}

// sortKeys orders bit vectors lexicographically (false < true).
func sortKeys(keys [][]bool) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for k := range a {
			if a[k] != b[k] {
				return b[k]
			}
		}
		return false
	})
}
