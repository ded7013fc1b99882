package main

import (
	"sync"
	"time"

	"dynunlock/internal/core"
	"dynunlock/internal/sat"
	"dynunlock/internal/trace"
)

// attackTrace is the traced run's record of one attack. It is the trace
// sink the attack's stage spans arrive on, the OnDIP observer, and the
// store the timing chip appends sessions to.
type attackTrace struct {
	mu       sync.Mutex
	spans    map[string]*spanRec
	counters map[string]uint64 // "<span>.<counter>"

	dips      int
	search    time.Duration // Σ per-DIP solve time
	searchMax time.Duration
	lastDIP   time.Time
	sessions  []interval
}

// spanRec is one stage span; each stage runs once per attack.
type spanRec struct {
	start, end time.Time
	dur        time.Duration
}

type interval struct{ start, end time.Time }

func newAttackTrace() *attackTrace {
	return &attackTrace{spans: map[string]*spanRec{}, counters: map[string]uint64{}}
}

// Emit implements trace.Sink.
func (a *attackTrace) Emit(ev trace.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch ev.Type {
	case "span_start":
		a.spans[ev.Span] = &spanRec{start: ev.Time}
	case "span_end":
		if r := a.spans[ev.Span]; r != nil {
			r.end, r.dur = ev.Time, ev.Duration
		}
		for k, v := range ev.Counters {
			a.counters[ev.Span+"."+k] += v
		}
	}
}

func (a *attackTrace) observeDIP(_ int, _, _ []bool, _ sat.Stats, solve time.Duration) {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dips++
	a.search += solve
	a.searchMax = max(a.searchMax, solve)
	a.lastDIP = now
}

func (a *attackTrace) span(name string) time.Duration {
	if r := a.spans[name]; r != nil {
		return r.dur
	}
	return 0
}

// tail is the time from the last DIP callback to the end of dip_loop: the
// terminating miter UNSAT proof plus the last DIP's copy encoding.
func (a *attackTrace) tail() time.Duration {
	r := a.spans["dip_loop"]
	if r == nil {
		return 0
	}
	from := r.start
	if a.lastDIP.After(from) {
		from = a.lastDIP
	}
	return r.end.Sub(from)
}

// sessionTime sums the chip calls that started inside the named span
// (every span when name is empty).
func (a *attackTrace) sessionTime(name string) time.Duration {
	var in interval
	if name != "" {
		r := a.spans[name]
		if r == nil {
			return 0
		}
		in = interval{r.start, r.end}
	}
	var sum time.Duration
	for _, s := range a.sessions {
		if name == "" || (!s.start.Before(in.start) && !s.start.After(in.end)) {
			sum += s.end.Sub(s.start)
		}
	}
	return sum
}

// timedChip times the chip calls the attack makes (Reset and Session; the
// linear-mode attack issues no multi-capture SessionN).
type timedChip struct {
	core.Chip
	at *attackTrace
}

func (c *timedChip) record(t0 time.Time) {
	t1 := time.Now()
	c.at.mu.Lock()
	c.at.sessions = append(c.at.sessions, interval{t0, t1})
	c.at.mu.Unlock()
}

func (c *timedChip) Reset() {
	t0 := time.Now()
	c.Chip.Reset()
	c.record(t0)
}

func (c *timedChip) Session(testKey, scanIn, pi []bool) (scanOut, po []bool) {
	t0 := time.Now()
	scanOut, po = c.Chip.Session(testKey, scanIn, pi)
	c.record(t0)
	return scanOut, po
}

// selfRows names the rows that partition traced attack time. Each is a
// self time: a span's duration minus the part its children cover (chip
// calls, per-DIP solves, the tail). "other" is the residual: harness and
// AttackCtx glue outside any span, and idle worker time in a sweep.
var selfRows = []string{
	"self.unroll_s", "self.encode_s", "self.dip_search_s", "self.dip_copy_s",
	"self.tail_s", "self.extract_s", "self.enumerate_s", "self.refine_s",
	"self.verify_s", "self.oracle_s", "self.other_s",
}

// layerMetrics aggregates a traced pass into the per-layer metrics.
// untraced is the untraced pass of the same seed, run first in the same
// process; the runtime.* rows come from it so tracing allocations do not
// show there. Time rows of the self-time partition are divided by the
// worker count, so that with the "other" residual they sum exactly to the
// traced attack_s (a sweep's idle worker time lands in "other").
func layerMetrics(traced, untraced *pass, st setupTimes) map[string]float64 {
	m := map[string]float64{
		"bench.build_s":      st.build.Seconds(),
		"lock.lock_s":        st.lock.Seconds(),
		"oracle.fabricate_s": st.fabricate.Seconds(),
	}
	sum := func(k string, v float64) { m[k] += v }
	self := map[string]time.Duration{}
	var solverTime time.Duration
	for _, o := range traced.outs {
		a, r := o.layers, o.res
		if r == nil {
			continue
		}
		sum("oracle.sessions", float64(o.fp.Queries))
		sum("oracle.cycles", float64(o.cycles))
		sum("oracle.session_s", a.sessionTime("").Seconds())
		sum("core.unroll_s", a.span("unroll").Seconds())
		sum("core.rank_deficit", float64(r.PredictedLog2))
		sum("aig.nodes", float64(a.counters["encode.aig_nodes"]))
		sum("encode.vars", float64(r.EncodeVars))
		sum("encode.clauses", float64(r.EncodeClauses))
		sum("satattack.encode_s", a.span("encode").Seconds())
		sum("satattack.dip_loop_s", a.span("dip_loop").Seconds())
		sum("satattack.dips", float64(a.dips))
		sum("satattack.dip_search_s", a.search.Seconds())
		m["satattack.dip_search_max_s"] = max(m["satattack.dip_search_max_s"], a.searchMax.Seconds())
		sum("satattack.tail_s", a.tail().Seconds())
		sum("satattack.extract_s", a.span("extract").Seconds())
		sum("satattack.enumerate_s", a.span("enumerate").Seconds())
		sum("satattack.mask_candidates", float64(a.counters["refine.mask_candidates"]))
		sum("core.refine_s", a.span("refine").Seconds())
		sum("core.verify_s", a.span("verify").Seconds())
		sum("core.verify_probes", float64(a.counters["verify.probes"]))
		sum("core.seed_candidates", float64(a.counters["refine.seed_candidates"]))
		s := r.SolverStats
		sum("sat.conflicts", float64(s.Conflicts))
		sum("sat.decisions", float64(s.Decisions))
		sum("sat.propagations", float64(s.Propagations))
		sum("sat.xor_propagations", float64(s.XorPropagations))
		sum("sat.learnt", float64(s.Learnt))
		sum("sat.restarts", float64(s.Restarts))
		solverTime += a.span("dip_loop") + a.span("extract") + a.span("enumerate")

		loopChip := a.sessionTime("dip_loop")
		self["self.unroll_s"] += a.span("unroll")
		self["self.encode_s"] += a.span("encode")
		self["self.dip_search_s"] += a.search
		self["self.dip_copy_s"] += a.span("dip_loop") - a.search - a.tail() - loopChip
		self["self.tail_s"] += a.tail()
		self["self.extract_s"] += a.span("extract")
		self["self.enumerate_s"] += a.span("enumerate")
		self["self.refine_s"] += a.span("refine")
		self["self.verify_s"] += a.span("verify") - a.sessionTime("verify")
		self["self.oracle_s"] += a.sessionTime("")
	}
	if solverTime > 0 {
		m["sat.props_per_s"] = m["sat.propagations"] / solverTime.Seconds()
	}
	workers := float64(traced.workers)
	attack := traced.attack.Seconds()
	rows := 0.0
	for _, k := range selfRows[:len(selfRows)-1] {
		m[k] = self[k].Seconds() / workers
		rows += m[k]
	}
	m["self.other_s"] = attack - rows
	m["trace.attack_s"] = attack
	m["trace.overhead_s"] = attack - untraced.attack.Seconds()
	m["satattack.tail_frac"] = m["self.tail_s"] / attack
	m["bench.sweep_busy_frac"] = traced.busy.Seconds() / (workers * attack)
	m["runtime.alloc_mb"] = untraced.allocMB
	m["runtime.gc_cycles"] = float64(untraced.gcCycles)
	m["runtime.gc_pause_s"] = untraced.gcPause.Seconds()
	return m
}
