package main

import (
	"context"
	"fmt"
	"time"

	"dynunlock"
	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/trace"
)

// fingerprint is the deterministic part of one attack. Timings are only
// comparable between runs whose fingerprints agree: same search path.
type fingerprint struct {
	DIPs         int    `json:"dips"`
	Queries      uint64 `json:"oracle_queries"`
	Conflicts    uint64 `json:"conflicts"`
	Propagations uint64 `json:"propagations"`
	Candidates   int    `json:"candidates"`
}

// outcome is one finished attack.
type outcome struct {
	t       *target
	res     *core.Result
	fail    string // empty when the attack passed the correctness gate
	fp      fingerprint
	cycles  uint64
	elapsed time.Duration
	layers  *attackTrace // traced runs only
}

// pass is one run of every target of a workload.
type pass struct {
	outs     []outcome
	attack   time.Duration // first attack start → last attack return
	cpu      time.Duration // process user+sys over the attack phase
	busy     time.Duration // Σ per-attack wall time
	workers  int
	allocMB  float64
	gcCycles uint32
	gcPause  time.Duration
}

// runPass attacks every target through bench.SweepCtx; traced adds the
// benchmark's own layer instrumentation around each attack.
func runPass(ctx context.Context, w workload, ts []*target, traced bool) (*pass, error) {
	ms0 := readMem()
	cpu0 := cpuTime()
	start := time.Now()
	outs, err := bench.SweepCtx(ctx, w.workers, ts, func(ctx context.Context, _ int, t *target) (outcome, error) {
		return attackOne(ctx, t, traced), nil
	})
	p := &pass{outs: outs, attack: time.Since(start), cpu: cpuTime() - cpu0, workers: w.workers}
	if err != nil {
		return nil, err
	}
	ms1 := readMem()
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for _, o := range outs {
		p.busy += o.elapsed
	}
	return p, nil
}

// attackOne runs core.AttackCtx on one chip with the default pipeline. A
// session hook chained under the attack's own counts every scan session
// (DIP queries and verify probes). The traced variant also wraps the chip
// in a timing core.Chip, observes every DIP through Options.OnDIP and puts
// a trace sink on ctx to read the stage spans the attack emits.
func attackOne(ctx context.Context, t *target, traced bool) outcome {
	var sessions, cycles uint64
	prev := t.chip.SetSessionHook(func(c uint64) {
		sessions++
		cycles += c
	})
	defer t.chip.SetSessionHook(prev)

	opts := pipeline()
	var chip core.Chip = t.chip
	var at *attackTrace
	if traced {
		at = newAttackTrace()
		chip = &timedChip{Chip: t.chip, at: at}
		opts.OnDIP = at.observeDIP
		ctx = trace.With(ctx, at)
	}
	start := time.Now()
	res, err := dynunlock.UnlockCtx(ctx, chip, opts)
	o := outcome{t: t, res: res, elapsed: time.Since(start), cycles: cycles, layers: at}
	o.fail = check(t, res, err)
	if res != nil {
		o.fp = fingerprint{
			DIPs:         res.Iterations,
			Queries:      sessions,
			Conflicts:    res.SolverStats.Conflicts,
			Propagations: res.SolverStats.Propagations,
			Candidates:   len(res.SeedCandidates),
		}
	}
	return o
}

// check is the correctness gate: an attack fails when it errored, stopped,
// did not converge, is not both exact and verified, lost the secret seed,
// or returned a candidate set whose size is not the mask model's class
// size 2^(keyBits − rank).
func check(t *target, res *core.Result, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("error: %v", err)
	case res.Stopped:
		return fmt.Sprintf("stopped: %s", res.StopReason)
	case !res.Converged:
		return "did not converge"
	case !res.Exact:
		return "candidate set not exact"
	case !res.Verified:
		return "candidates not verified"
	case !core.ContainsSeed(res.SeedCandidates, t.chip.SecretSeed()):
		return "secret seed not among the candidates"
	case len(res.SeedCandidates) != t.cfg.class:
		return fmt.Sprintf("%d candidates, class size is %d", len(res.SeedCandidates), t.cfg.class)
	}
	return ""
}
