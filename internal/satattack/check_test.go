package satattack

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"dynunlock/internal/encode"
	"dynunlock/internal/metrics"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
	"dynunlock/internal/sim"
	"dynunlock/internal/trace"
)

// keyedPair builds a random circuit and an XOR-locked copy of it, like
// lockedPair, but with random structure and more observable keys. Its
// outputs are the last nOut signals plus, for about 3 in 4 of the locked
// wires, an AND of the wire with an earlier signal, so those key bits are
// observable under some inputs. The key class is then often unique — the
// regime in which the consistency checker ends the attack — while key
// gates off every output path still give classes of 2^j.
func keyedPair(rng *rand.Rand, nIn, nGates, nKeys, nOut int) (orig, locked *netlist.CombView) {
	structure := rng.Int63()
	correct := make([]bool, nKeys)
	for i := range correct {
		correct[i] = rng.Intn(2) == 1
	}
	build := func(lockIt bool) *netlist.CombView {
		gr := rand.New(rand.NewSource(structure))
		n := netlist.New("c")
		var sigs []netlist.SignalID
		for i := 0; i < nIn; i++ {
			id, _ := n.AddInput("")
			sigs = append(sigs, id)
		}
		var keys []netlist.SignalID
		if lockIt {
			for i := 0; i < nKeys; i++ {
				id, _ := n.AddInput(fmt.Sprintf("k%d", i))
				keys = append(keys, id)
			}
		}
		types := []netlist.GateType{netlist.And, netlist.Or, netlist.Xor, netlist.Nand, netlist.Nor}
		lockAt := map[int]int{} // gate index -> key index
		for i := 0; i < nKeys; i++ {
			lockAt[nGates*i/nKeys] = i
		}
		var observe []netlist.SignalID
		for i := 0; i < nGates; i++ {
			t := types[gr.Intn(len(types))]
			id, err := n.AddGate("", t, sigs[gr.Intn(len(sigs))], sigs[gr.Intn(len(sigs))])
			if err != nil {
				panic(err)
			}
			if ki, ok := lockAt[i]; ok && lockIt {
				gt := netlist.Xor
				if correct[ki] {
					gt = netlist.Xnor
				}
				if id, err = n.AddGate("", gt, id, keys[ki]); err != nil {
					panic(err)
				}
			}
			if _, ok := lockAt[i]; ok && gr.Intn(4) != 0 {
				obs, err := n.AddGate("", netlist.And, id, sigs[gr.Intn(len(sigs))])
				if err != nil {
					panic(err)
				}
				observe = append(observe, obs)
			}
			sigs = append(sigs, id)
		}
		for i := 0; i < nOut; i++ {
			n.MarkOutput(sigs[len(sigs)-1-i])
		}
		for _, obs := range observe {
			n.MarkOutput(obs)
		}
		v, err := netlist.NewCombView(n)
		if err != nil {
			panic(err)
		}
		return v
	}
	return build(false), build(true)
}

func keyedLocked(locked *netlist.CombView) *Locked {
	return NewLocked(locked, func(i int, s netlist.SignalID) bool {
		name := locked.N.SignalName(s)
		return len(name) > 0 && name[0] == 'k'
	})
}

// ioPair is one recorded DIP and the oracle's response to it.
type ioPair struct{ dip, resp []bool }

// recordDIPs returns an OnDIP observer that copies every I/O pair.
func recordDIPs(pairs *[]ioPair) DIPObserver {
	return func(_ int, dip, resp []bool, _ sat.Stats, _ time.Duration) {
		*pairs = append(*pairs, ioPair{append([]bool(nil), dip...), append([]bool(nil), resp...)})
	}
}

// endedEarly reports whether the consistency checker ended the run: the
// DIP loop then issues one miter race per DIP and no terminating,
// extraction or enumeration call.
func endedEarly(res *Result) bool {
	races := 0
	for _, w := range res.InstanceWins {
		races += w
	}
	return races == res.Iterations
}

// pureMiterUnsat rebuilds the plain two-copy miter from scratch, asserts
// every recorded I/O pair on both key copies, and reports whether it is
// UNSAT — the textbook termination condition the checker must imply.
func pureMiterUnsat(l *Locked, pairs []ioPair) bool {
	s := sat.New()
	e := encode.New(s)
	x := e.FreshVec(len(l.InIdx))
	k1 := e.FreshVec(len(l.KeyIdx))
	k2 := e.FreshVec(len(l.KeyIdx))
	m := e.Miter(e.EncodeComb(l.View, l.assemble(e, x, k1)), e.EncodeComb(l.View, l.assemble(e, x, k2)))
	for _, p := range pairs {
		cx := e.ConstVec(p.dip)
		e.AssertEqualConst(e.EncodeComb(l.View, l.assemble(e, cx, k1)), p.resp)
		e.AssertEqualConst(e.EncodeComb(l.View, l.assemble(e, cx, k2)), p.resp)
	}
	return s.Solve(m) == sat.Unsat
}

// consistentKeys brute-forces every key and returns, as sorted bit
// strings, those that reproduce every recorded response.
func consistentKeys(l *Locked, pairs []ioPair) []string {
	c := sim.NewComb(l.View)
	full := make([]bool, len(l.View.Inputs))
	var out []string
	for k := 0; k < 1<<len(l.KeyIdx); k++ {
		key := make([]bool, len(l.KeyIdx))
		for i, idx := range l.KeyIdx {
			key[i] = k>>i&1 == 1
			full[idx] = key[i]
		}
		ok := true
		for _, p := range pairs {
			for i, idx := range l.InIdx {
				full[idx] = p.dip[i]
			}
			got := c.EvalBits(full)
			for j := range got {
				if got[j] != p.resp[j] {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, bitString(key))
		}
	}
	sort.Strings(out)
	return out
}

// Soundness differential for exact early termination. On random locked
// circuits, through both engines and every encode variant, whenever a run
// converges its recorded I/O pairs must make a freshly built pure miter
// UNSAT, and its candidates must be exactly the brute-forced set of keys
// consistent with those pairs. Trials alternate between the netlists of
// the AIG differential (lockedPair, whose classes are rarely unique) and
// keyedPair; both the early exit and the miter-proof fallback must occur
// in every variant.
func TestEarlyTerminationSound(t *testing.T) {
	type variant struct {
		name string
		opts Options
	}
	var variants []variant
	for _, pf := range []int{1, 3} {
		for _, useAIG := range []bool{false, true} {
			for _, xor := range []bool{false, true} {
				variants = append(variants, variant{
					fmt.Sprintf("pf=%d aig=%v xor=%v", pf, useAIG, xor),
					Options{Portfolio: pf, AIG: useAIG, NativeXor: xor, Simplify: useAIG},
				})
			}
		}
	}
	early := map[string]int{}
	fallback := map[string]int{}
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 32; trial++ {
		var orig, locked *netlist.CombView
		if trial%2 == 0 {
			orig, locked, _ = lockedPair(rng, 4+rng.Intn(4), 30+rng.Intn(50), 4+rng.Intn(4))
		} else {
			// At most 12 key bits keep the brute force small.
			orig, locked = keyedPair(rng, 4+rng.Intn(4), 20+rng.Intn(40), 3+rng.Intn(10), 3+rng.Intn(6))
		}
		l := keyedLocked(locked)
		nKeys := len(l.KeyIdx)
		for _, v := range variants {
			var pairs []ioPair
			opts := v.opts
			opts.EnumerateLimit = 1 << nKeys
			opts.OnDIP = recordDIPs(&pairs)
			res, err := Run(l, &simOracle{c: sim.NewComb(orig)}, opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v.name, err)
			}
			if !res.Converged || !res.CandidatesExact {
				t.Fatalf("trial %d %s: converged=%v exact=%v", trial, v.name, res.Converged, res.CandidatesExact)
			}
			if !pureMiterUnsat(l, pairs) {
				t.Fatalf("trial %d %s: converged after %d DIPs but the pure miter is still SAT",
					trial, v.name, len(pairs))
			}
			if got, want := candidateSet(t, res), consistentKeys(l, pairs); !eqSets(got, want) {
				t.Fatalf("trial %d %s: candidates %v, brute force %v", trial, v.name, got, want)
			}
			if endedEarly(res) {
				if len(res.Candidates) != 1 {
					t.Fatalf("trial %d %s: early exit with %d candidates", trial, v.name, len(res.Candidates))
				}
				early[v.name]++
			} else {
				fallback[v.name]++
			}
		}
	}
	for _, v := range variants {
		if early[v.name] == 0 || fallback[v.name] == 0 {
			t.Errorf("%s: %d early exits, %d miter-proof fallbacks; want both",
				v.name, early[v.name], fallback[v.name])
		}
	}
}

// uniqueFixture returns a locked circuit whose key class is unique, so the
// consistency checker ends the attack.
func uniqueFixture(t *testing.T) (*Locked, *netlist.CombView) {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	for try := 0; try < 50; try++ {
		orig, locked := keyedPair(rng, 6, 40, 6, 6)
		l := keyedLocked(locked)
		res, err := Run(l, &simOracle{c: sim.NewComb(orig)}, Options{EnumerateLimit: 64})
		if err != nil {
			t.Fatal(err)
		}
		if endedEarly(res) && res.Iterations >= 2 {
			return l, orig
		}
	}
	t.Fatal("no unique-class fixture found")
	return nil, nil
}

// The early-exit path keeps the stage contract and accounts for the
// checker: extract and enumerate spans are still emitted (no SAT work,
// candidates=1), dip_loop carries the check_* counters, and the published
// solver totals and search telemetry equal Result.SolverStats exactly.
func TestEarlyTerminationAccounting(t *testing.T) {
	l, orig := uniqueFixture(t)
	for _, pf := range []int{1, 3} {
		r := metrics.NewRegistry()
		c := trace.NewCollector()
		var restarts restartCounter
		ctx := trace.With(metrics.With(context.Background(), r), c)
		res, err := RunCtx(ctx, l, &simOracle{c: sim.NewComb(orig)},
			Options{Portfolio: pf, EnumerateLimit: 64, Search: &restarts})
		if err != nil {
			t.Fatal(err)
		}
		if !endedEarly(res) || !res.Converged || !res.CandidatesExact || len(res.Candidates) != 1 {
			t.Fatalf("pf=%d: early=%v converged=%v exact=%v candidates=%d", pf,
				endedEarly(res), res.Converged, res.CandidatesExact, len(res.Candidates))
		}
		spans := map[string]trace.SpanRecord{}
		for _, sp := range c.Spans() {
			spans[sp.Name] = sp
		}
		for _, name := range []string{"encode", "dip_loop", "extract", "enumerate"} {
			if _, ok := spans[name]; !ok {
				t.Fatalf("pf=%d: missing span %q", pf, name)
			}
		}
		if n := len(spans["extract"].Counters); n != 0 {
			t.Errorf("pf=%d: extract span has counters %v, want no SAT work", pf, spans["extract"].Counters)
		}
		if got := spans["enumerate"].Counters; len(got) != 1 || got["candidates"] != 1 {
			t.Errorf("pf=%d: enumerate counters %v, want candidates=1 only", pf, got)
		}
		loop := spans["dip_loop"].Counters
		if loop["check_solves"] < 2*uint64(res.Iterations) || loop["check_capped"] != 0 {
			t.Errorf("pf=%d: check counters %v for %d DIPs", pf, loop, res.Iterations)
		}
		for name, want := range map[string]uint64{
			metrics.MetricSatConflicts:    res.SolverStats.Conflicts,
			metrics.MetricSatDecisions:    res.SolverStats.Decisions,
			metrics.MetricSatPropagations: res.SolverStats.Propagations,
			metrics.MetricSatRestarts:     res.SolverStats.Restarts,
		} {
			if got := sumOf(r, name); got != float64(want) {
				t.Errorf("pf=%d: %s = %v, want %d", pf, name, got, want)
			}
		}
		if restarts.n != res.SolverStats.Restarts {
			t.Errorf("pf=%d: observed %d restarts, result has %d", pf, restarts.n, res.SolverStats.Restarts)
		}
		// One latency per DIP plus the terminating call, here the check.
		if got := sumOf(r, metrics.MetricAttackDIPSolveSec); got != float64(res.Iterations+1) {
			t.Errorf("pf=%d: dip solve histogram count = %v, want %d", pf, got, res.Iterations+1)
		}
	}
}

// restartCounter is a SearchObserver that counts restarts over every
// instance, the checker included.
type restartCounter struct {
	mu sync.Mutex
	n  uint64
}

func (c *restartCounter) SearchLearnt(int, int32, int) {}

func (c *restartCounter) SearchRestart(int, uint64) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// An iteration bound that lands on the DIP after which the checker proves
// uniqueness still wins, as it did before the checker existed: the run is
// Stopped at max-iterations, not Converged, and extraction and enumeration
// recover the unique key from the accumulated constraints.
func TestEarlyTerminationIterationBound(t *testing.T) {
	l, orig := uniqueFixture(t)
	full, err := Run(l, &simOracle{c: sim.NewComb(orig)}, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(l, &simOracle{c: sim.NewComb(orig)},
		Options{EnumerateLimit: 64, MaxIterations: full.Iterations})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StopReason != StopIterations || res.Converged {
		t.Fatalf("stopped=%v reason=%q converged=%v", res.Stopped, res.StopReason, res.Converged)
	}
	if res.Iterations != full.Iterations || !res.CandidatesExact || len(res.Candidates) != 1 ||
		bitString(res.Candidates[0]) != bitString(full.Key) {
		t.Fatalf("iterations %d/%d, exact=%v, candidates %d", res.Iterations, full.Iterations,
			res.CandidatesExact, len(res.Candidates))
	}
}

// Cancelling the context mid-loop stops the attack even at the DIP after
// which the checker would prove uniqueness: the result is Stopped, never
// Converged.
func TestEarlyTerminationCancelled(t *testing.T) {
	l, orig := uniqueFixture(t)
	for _, pf := range []int{1, 3} {
		for after := 1; ; after++ {
			ctx, cancel := context.WithCancel(context.Background())
			co := &cancellingOracle{inner: &simOracle{c: sim.NewComb(orig)}, after: after, cancel: cancel}
			res, err := RunCtx(ctx, l, co, Options{Portfolio: pf, EnumerateLimit: 64})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if co.n < after {
				// The attack converged before the cancelling query; the
				// portfolio's DIP count varies from run to run.
				if !res.Converged || res.Stopped {
					t.Fatalf("pf=%d: uncancelled run converged=%v stopped=%v", pf, res.Converged, res.Stopped)
				}
				break
			}
			if !res.Stopped || res.StopReason != StopCancelled || res.Converged || res.Key != nil {
				t.Fatalf("pf=%d cancel at DIP %d: stopped=%v reason=%q converged=%v",
					pf, after, res.Stopped, res.StopReason, res.Converged)
			}
		}
	}
}
