package main

import (
	"fmt"
	"time"

	"dynunlock"
	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/oracle"
	"dynunlock/internal/scan"
)

// pipeline is the attack cmd/dynunlock runs by default: linear mode,
// per-cycle policy, native XOR + AIG + simplify on, analytic off (no
// Insight source), portfolio 1, enumerate limit 256. Every workload and
// both the traced and untraced runs use exactly these options.
func pipeline() core.Options {
	return core.Options{
		Mode:           core.ModeLinear,
		Portfolio:      1,
		EnumerateLimit: 256,
		NativeXor:      true,
		AIG:            true,
		Simplify:       true,
	}
}

// policy is the defense under attack: EFF-Dyn, the paper's target.
const policy = scan.PerCycle

// config is one locked circuit attacked over several chip secrets.
type config struct {
	bench   string
	scale   int // circuit size divisor (1 = paper scale)
	keyBits int
	trials  int
	class   int // expected indistinguishability-class size, 2^(keyBits−rank)
}

// workload is one closed loop: a single driver process attacks every
// (config, trial) target, on workers goroutines. Why each workload exists
// is recorded in BENCHMARK.json and README.md.
type workload struct {
	name    string
	workers int
	configs []config
}

var workloads = []workload{
	{
		name:    "unique128",
		workers: 1,
		configs: []config{
			{"s5378", 1, 128, 4, 1},
			{"s13207", 1, 128, 4, 1},
			{"s15850", 1, 128, 1, 1},
			{"b21", 1, 128, 1, 1},
		},
	},
	{
		name:    "widekey",
		workers: 1,
		configs: []config{
			{"s5378", 1, 320, 6, 4},
			{"s5378", 1, 324, 6, 128},
			{"s13207", 1, 400, 6, 2},
		},
	},
	{
		name:    "sweep16",
		workers: 2,
		configs: sweep16(),
	},
}

// sweep16 scales Table II the way cmd/tables -scale 16 does: circuits and
// keys divided by 16 (keys floored at 8 bits), eight secrets each.
func sweep16() []config {
	var cs []config
	for _, e := range bench.Table2 {
		cs = append(cs, config{e.Name, 16, max(8, 128/16), 8, 1})
	}
	return cs
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// target is one attack: a fabricated chip of one config.
type target struct {
	cfg   config
	trial int
	chip  *oracle.Chip
}

func (t *target) label() string {
	return fmt.Sprintf("%s@%d/%d trial %d", t.cfg.bench, t.cfg.keyBits, t.cfg.scale, t.trial)
}

// setupTimes splits one set-up into its three layers.
type setupTimes struct {
	build, lock, fabricate time.Duration
}

func (s setupTimes) total() time.Duration { return s.build + s.lock + s.fabricate }

// setup generates every netlist, locks it and fabricates one chip per
// trial. Chip secrets derive from the workload seed as RunExperimentCtx
// derives them: seed + trial·7919 + 1.
func setup(w workload, seed int64) ([]*target, setupTimes, error) {
	var ts []*target
	var st setupTimes
	for _, c := range w.configs {
		entry, ok := bench.ByName(c.bench)
		if !ok {
			return nil, st, fmt.Errorf("unknown benchmark %q", c.bench)
		}
		entry = entry.Scaled(c.scale)
		t0 := time.Now()
		n, err := entry.Build(0)
		t1 := time.Now()
		if err != nil {
			return nil, st, fmt.Errorf("build %s: %w", entry.Name, err)
		}
		d, err := lock.Lock(n, lock.Config{KeyBits: c.keyBits, Policy: policy})
		t2 := time.Now()
		if err != nil {
			return nil, st, fmt.Errorf("lock %s: %w", entry.Name, err)
		}
		st.build += t1.Sub(t0)
		st.lock += t2.Sub(t1)
		for trial := 0; trial < c.trials; trial++ {
			t3 := time.Now()
			chip, err := dynunlock.Fabricate(d, seed+int64(trial)*7919+1)
			st.fabricate += time.Since(t3)
			if err != nil {
				return nil, st, fmt.Errorf("fabricate %s: %w", entry.Name, err)
			}
			ts = append(ts, &target{cfg: c, trial: trial, chip: chip})
		}
	}
	return ts, st, nil
}

// checkClasses computes each config's class size from the rank of the
// GF(2) mask model [A;B] — independently of SAT enumeration — and checks it
// against the size the workload was chosen for.
func checkClasses(ts []*target) error {
	seen := map[config]bool{}
	for _, t := range ts {
		if seen[t.cfg] {
			continue
		}
		seen[t.cfg] = true
		d := t.chip.Design()
		a, b, err := core.MaskMatrices(d, 0)
		if err != nil {
			return fmt.Errorf("%s: mask model: %w", t.label(), err)
		}
		deficit := d.Config.KeyBits - gf2.Rank(gf2.VStack(a, b))
		if deficit >= 30 || 1<<deficit != t.cfg.class {
			return fmt.Errorf("%s: mask-model class 2^%d, workload expects %d", t.label(), deficit, t.cfg.class)
		}
	}
	return nil
}
