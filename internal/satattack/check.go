package satattack

import (
	"context"
	"time"

	"dynunlock/internal/aig"
	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
	"dynunlock/internal/trace"
)

// checkConflictCap bounds every consistency-checker solve. A capped solve
// only means the check is inconclusive at this DIP; the miter loop goes on
// as if the check had never run.
const checkConflictCap = 5000

// checkInstance is the instance number the consistency checker reports to
// a SearchObserver; its metric series carry the label instance="check".
const checkInstance = -1

// keyChecker proves key uniqueness on a solver of its own, separate from
// the miter solver(s). It holds a single key vector and, per DIP, one
// circuit copy with the inputs fixed to the DIP and the outputs fixed to
// the oracle response, so its models are exactly the keys consistent with
// every recorded I/O pair (the fixed-key / key-inequality check of
// SNIPPETS.md, on one copy instead of a miter).
//
// When exactly one key is consistent, every two consistent keys are equal
// and the miter's next solve is UNSAT; the checker proves the uniqueness
// directly, usually far faster than the miter proof. It never adds a
// clause to a miter solver, so the DIP sequence is unchanged.
type keyChecker struct {
	l      *Locked
	g      *aig.Graph
	s      *sat.Solver
	e      *encode.Encoder
	k      []cnf.Lit
	solves uint64
	capped uint64
	// am, when live, receives the latency of the check that proves
	// uniqueness: it is the DIP loop's terminating call.
	am *attackMetrics
}

// newKeyChecker builds the checker for l, replaying the attack's shared
// AIG arena when g is non-nil and the netlist directly otherwise. It
// publishes its solver counters and search telemetry like a miter
// instance, so metric totals equal Result.SolverStats.
func newKeyChecker(l *Locked, g *aig.Graph, opts Options, mh *metrics.Handle, am *attackMetrics) *keyChecker {
	s := sat.New()
	installSolverMetrics(mh, opts.Search, s, checkInstance)
	e := encode.NewWithConfig(s, encode.Config{NativeXor: opts.NativeXor})
	return &keyChecker{l: l, g: g, s: s, e: e, k: e.FreshVec(len(l.KeyIdx)), am: am}
}

// observe asserts one DIP's oracle response and returns the consistent key
// when it is proven to be the only one, nil otherwise (another key exists,
// a solve hit the cap, or ctx stopped it). An inconsistent oracle also
// yields nil: the miter loop then reports it as it always has.
func (c *keyChecker) observe(ctx context.Context, dip, resp []bool) []bool {
	// The timestamp is taken only under metrics, like the miter solves'.
	var t0 time.Time
	if c.am != nil {
		t0 = time.Now()
	}
	c.e.AssertEqualConst(c.l.encodeCopy(c.e, c.g, c.e.ConstVec(dip), c.k), resp)
	if c.solve(ctx) != sat.Sat {
		return nil
	}
	key := c.e.ModelBits(c.k)
	// Block key under a fresh activation literal, ask for another key, then
	// retire the literal so the blocking clause never constrains a later
	// check.
	act := c.e.Fresh()
	c.s.AddClause(append([]cnf.Lit{act.Not()}, blockingClause(c.k, key)...)...)
	st := c.solve(ctx, act)
	c.s.AddClause(act.Not())
	if st != sat.Unsat {
		return nil
	}
	if c.am != nil {
		c.am.observeSolve(time.Since(t0))
	}
	return key
}

// solve runs one capped solve and counts it.
func (c *keyChecker) solve(ctx context.Context, assumptions ...cnf.Lit) sat.Status {
	c.solves++
	c.s.ConflictBudget = int64(c.s.Stats.Conflicts) + checkConflictCap
	st := c.s.SolveCtx(ctx, assumptions...)
	if st == sat.Unknown && c.s.BudgetExhausted() {
		c.capped++
	}
	return st
}

// addCounters records the checker's work on the dip_loop span.
func (c *keyChecker) addCounters(sp *trace.Span) {
	sp.Add("check_solves", c.solves)
	sp.Add("check_conflicts", c.s.Stats.Conflicts)
	sp.Add("check_capped", c.capped)
}

// addStats returns the element-wise sum of two solver counter sets.
func addStats(a, b sat.Stats) sat.Stats {
	a.Decisions += b.Decisions
	a.Propagations += b.Propagations
	a.Conflicts += b.Conflicts
	a.Restarts += b.Restarts
	a.Learnt += b.Learnt
	a.Removed += b.Removed
	a.XorPropagations += b.XorPropagations
	a.XorConflicts += b.XorConflicts
	a.SimplifyCalls += b.SimplifyCalls
	a.SimplifyRemoved += b.SimplifyRemoved
	a.SimplifyStrengthened += b.SimplifyStrengthened
	return a
}
