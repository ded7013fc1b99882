// Portfolio SAT attack: every SAT call of the DIP loop and of candidate
// enumeration is raced across N diversified solver/encoder instances. The
// race is context-scoped: each race derives a child context, the first
// instance to return a definitive answer wins and cancels the child, and
// the losers' ctx watchers interrupt their searches — so cancelling the
// parent context (deadline, cmd-line -timeout, caller cancellation) tears
// the whole race down through the same mechanism. The winning
// distinguishing input and oracle response — or blocking clause — are
// replayed into every instance, so all clause databases stay logically
// equivalent and any instance can win the next race.
//
// Diversification (sat.Diversify) varies the VSIDS decay, restart policy,
// initial phases, and random-decision seed per instance; instance 0 always
// runs the zero config, i.e. the sequential solver. SAT-call latency, not
// iteration count, dominates dynamic-scan attacks (ScanSAT, GF-Flush), so
// racing the solve is where the wall-clock parallelism is.
//
// Determinism: the *set* of enumerated keys is the full equivalence class
// of the oracle constraints, which is independent of which instance wins
// which race; only the DIP order, iteration count, and per-instance stats
// vary between runs. Tests assert candidate-set equality across portfolio
// sizes 1, 2, and 4.
package satattack

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"dynunlock/internal/aig"
	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
	"dynunlock/internal/trace"
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
	// winCtr mirrors wins as live per-instance counters; entries are nil
	// (no-op) when metrics are disabled.
	winCtr []*metrics.Counter
	// aig, when non-nil, is the compacted arena every instance's copies
	// are encoded from (Options.AIG). The graph is read-only after
	// construction, so all instances share one.
	aig *aig.Graph
	// simplify arms per-instance level-0 inprocessing between DIPs.
	simplify bool
}

// emitted snapshots instance 0's problem size (variables; clauses plus
// native XOR rows) for encode-growth accounting.
func (p *portfolio) emitted() (uint64, uint64) {
	s := p.insts[0].s
	return uint64(s.NumVars()), uint64(s.NumClauses() + s.NumXors())
}

func newPortfolio(l *Locked, opts Options, mh *metrics.Handle) (*portfolio, error) {
	n := opts.Portfolio
	p := &portfolio{l: l, wins: make([]int, n), simplify: opts.Simplify}
	if opts.AIG {
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
		p.winCtr = append(p.winCtr, mh.Counter(metrics.MetricPortfolioWins, "instance", strconv.Itoa(i)))
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
		for _, ks := range [][]cnf.Lit{in.k1, in.k2} {
			for _, kl := range ks {
				s.BumpActivity(kl.Var(), 1)
			}
		}
		p.insts = append(p.insts, in)
	}
	return p, nil
}

// race runs one SAT call on every instance concurrently and returns the
// index and status of the first definitive (Sat/Unsat) finisher, after
// cancelling and draining the rest. Every instance solves under a child
// context of ctx: the winner cancels it to stop the losers, and a parent
// cancellation or deadline stops the whole race the same way. If every
// instance returns Unknown (parent cancelled, or conflict budget
// exhausted) the winner index is -1.
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
			var st sat.Status
			if withMiter {
				st = in.s.SolveCtx(raceCtx, in.miter)
			} else {
				st = in.s.SolveCtx(raceCtx)
			}
			ch <- outcome{i, st}
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
// both key copies of every instance — the same constraint the sequential
// engine adds, issued N times. It returns instance 0's problem-size
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

// statsSum returns the element-wise sum of every instance's solver
// counters: total work across the portfolio, not critical-path work.
func (p *portfolio) statsSum() sat.Stats {
	var sum sat.Stats
	for _, in := range p.insts {
		sum = addStats(sum, in.s.Stats)
	}
	return sum
}

// runPortfolio is the portfolio counterpart of RunCtx: same stage spans,
// same typed partial results, with every SAT call raced across instances.
func runPortfolio(ctx context.Context, l *Locked, o Oracle, opts Options) (*Result, error) {
	tr := trace.From(ctx)
	mh := metrics.From(ctx)
	am := newAttackMetrics(mh, "portfolio")
	start := time.Now()

	enc := tr.Start("encode")
	p, err := newPortfolio(l, opts, mh)
	if err != nil {
		enc.End()
		return nil, err
	}
	enc.Add("instances", uint64(len(p.insts)))
	enc.Add("vars", uint64(p.insts[0].s.NumVars()))
	enc.Add("clauses", uint64(p.insts[0].s.NumClauses()))
	if p.aig != nil {
		enc.Add("aig_nodes", uint64(p.aig.NumNodes()))
	}
	enc.End()

	res := &Result{}
	res.EncodeVars, res.EncodeClauses = p.emitted()
	am.observeEncode(res.EncodeVars, res.EncodeClauses)
	// One consistency checker serves the whole portfolio: it sees each
	// winning DIP once, after every instance has asserted it.
	chk := newKeyChecker(l, p.aig, opts, mh, am)
	finish := func(reason StopReason) *Result {
		if reason != StopNone {
			res.Stopped = true
			res.StopReason = reason
		}
		for _, in := range p.insts {
			in.s.FlushHook()
		}
		chk.s.FlushHook()
		res.SolverStats = addStats(p.statsSum(), chk.s.Stats)
		for _, in := range p.insts {
			res.InstanceStats = append(res.InstanceStats, in.s.Stats)
		}
		res.InstanceWins = append([]int(nil), p.wins...)
		res.Elapsed = time.Since(start)
		return res
	}

	loop := tr.Start("dip_loop")
	loopMark := p.statsSum()
	var loopEncV, loopEncC uint64
	endLoop := func() {
		addStatsDelta(loop, loopMark, p.statsSum())
		loop.Add("dips", uint64(res.Iterations))
		loop.Add("oracle_queries", uint64(res.Queries))
		loop.Add("encode_vars", loopEncV)
		loop.Add("encode_clauses", loopEncC)
		chk.addCounters(loop)
		loop.End()
	}
	stop := StopNone
	insCursor := 0
	var unique []bool
dipLoop:
	for {
		if err := ctx.Err(); err != nil {
			stop = ctxStopReason(ctx)
			break
		}
		if opts.MaxIterations > 0 && res.Iterations >= opts.MaxIterations {
			stop = StopIterations
			break
		}
		if unique != nil {
			res.Key = unique
			res.Converged = true
			break
		}
		var solveT0, solveT1 time.Time
		if am != nil || opts.OnDIP != nil {
			solveT0 = time.Now()
		}
		winner, st := p.race(ctx, true)
		if am != nil || opts.OnDIP != nil {
			solveT1 = time.Now()
		}
		if am != nil {
			am.observeSolve(solveT1.Sub(solveT0))
		}
		switch st {
		case sat.Unsat:
			res.Converged = true
			break dipLoop
		case sat.Unknown:
			stop = ctxStopReason(ctx)
			break dipLoop
		case sat.Sat:
			w := p.insts[winner]
			dip := w.e.ModelBits(w.x)
			resp := o.Query(dip)
			res.Queries++
			res.Iterations++
			if len(resp) != len(l.View.Outputs) {
				endLoop()
				return nil, fmt.Errorf("satattack: oracle returned %d outputs, want %d", len(resp), len(l.View.Outputs))
			}
			am.observeDIP(res.Iterations)
			if opts.OnDIP != nil {
				opts.OnDIP(res.Iterations, dip, resp, p.statsSum(), solveT1.Sub(solveT0))
			}
			dv, dc := p.replayDIP(dip, resp)
			res.EncodeVars += dv
			res.EncodeClauses += dc
			loopEncV += dv
			loopEncC += dc
			am.observeEncode(dv, dc)
			if opts.Insight != nil {
				// Replay the certified rows into every instance so all
				// clause databases stay logically equivalent and any
				// instance can win the next race.
				var cs []KeyConstraint
				cs, insCursor = opts.Insight.ConstraintsSince(insCursor)
				for _, in := range p.insts {
					injectInsight(in.s, in.k1, in.k2, cs)
				}
				if key, ok := opts.Insight.SolveKey(); ok && len(key) == len(l.KeyIdx) {
					res.Key = append([]bool(nil), key...)
					res.Analytic = true
					res.Converged = true
					break dipLoop
				}
			}
			if p.simplify {
				// Per-instance level-0 inprocessing: clause databases differ
				// (learnts diverge between instances) but each rewrite is
				// equivalence-preserving, so the race stays fair.
				for _, in := range p.insts {
					in.s.Simplify()
				}
			}
			tr.Progressf("iter %d: dip=%s inst=%d clauses=%d",
				res.Iterations, bitString(dip), winner, w.s.NumClauses())
			if opts.Log != nil {
				fmt.Fprintf(opts.Log, "iter %d: dip=%s inst=%d clauses=%d\n",
					res.Iterations, bitString(dip), winner, w.s.NumClauses())
			}
			if opts.DumpCNF != nil {
				opts.DumpCNF(res.Iterations, w.s.WriteDimacs)
			}
			unique = chk.observe(ctx, dip, resp)
		}
	}
	endLoop()
	if stop != StopNone && stop != StopIterations {
		return finish(stop), nil
	}
	if res.Key != nil {
		// Rank-k short-circuit or proven uniqueness (see the sequential
		// engine): extraction and enumeration races are skipped.
		settleUnique(tr, res, opts.EnumerateLimit)
		return finish(stop), nil
	}

	// Key extraction.
	ext := tr.Start("extract")
	extMark := p.statsSum()
	winner, st := p.race(ctx, false)
	addStatsDelta(ext, extMark, p.statsSum())
	ext.End()
	switch st {
	case sat.Unsat:
		return nil, ErrUnsat
	case sat.Unknown:
		return finish(ctxStopReason(ctx)), nil
	}
	w := p.insts[winner]
	res.Key = w.e.ModelBits(w.k1)

	if opts.EnumerateLimit > 0 {
		enumSp := tr.Start("enumerate")
		enumMark := p.statsSum()
		res.Candidates = [][]bool{append([]bool(nil), res.Key...)}
		res.CandidatesExact = false
		if p.block(res.Key) {
		enumLoop:
			for len(res.Candidates) < opts.EnumerateLimit {
				winner, st := p.race(ctx, false)
				switch {
				case st == sat.Unknown:
					stop = ctxStopReason(ctx)
					break enumLoop
				case st != sat.Sat:
					res.CandidatesExact = st == sat.Unsat
					break enumLoop
				}
				w := p.insts[winner]
				k := w.e.ModelBits(w.k1)
				res.Candidates = append(res.Candidates, k)
				if !p.block(k) {
					res.CandidatesExact = true
					break
				}
			}
			if stop == StopNone && len(res.Candidates) == opts.EnumerateLimit && !res.CandidatesExact {
				// Limit reached; check whether anything remains.
				_, st := p.race(ctx, false)
				if st == sat.Unknown {
					stop = ctxStopReason(ctx)
				} else {
					res.CandidatesExact = st == sat.Unsat
				}
			}
		} else {
			res.CandidatesExact = true
		}
		// Race winners enumerate keys in solver-dependent order; report the
		// class in a canonical order so portfolio size never changes output.
		sortKeys(res.Candidates)
		addStatsDelta(enumSp, enumMark, p.statsSum())
		enumSp.Add("candidates", uint64(len(res.Candidates)))
		enumSp.End()
	}
	return finish(stop), nil
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
