// Command perfbench is the repository's attack benchmark. It drives the
// DynUnlock attack through its public entry points (bench.Entry.Build,
// lock.Lock, dynunlock.Fabricate, dynunlock.UnlockCtx and bench.SweepCtx)
// and runs one workload once, as a closed loop in this one process. Its
// last line of output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}, "fingerprints": […]}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With -trace 1 the workload runs untraced and then
// traced, and the metrics are the per-layer ones read from the traced run.
// Every attack passes a correctness gate, and the deterministic counts of
// every attack (the fingerprints) must agree between the traced and the
// untraced run. run.py builds this command, repeats it to fill the
// measurement time, and checks the fingerprints across runs.
//
// Usage:
//
//	perfbench -workload unique128 -seed 1 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 31

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Metrics      map[string]metric `json:"metrics"`
	Fingerprints []fingerprint     `json:"fingerprints"`
}

func main() {
	var (
		name   = flag.String("workload", "", "workload: unique128 | widekey | sweep16")
		seed   = flag.Int64("seed", 1, "workload seed; chip secrets derive from it")
		traced = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or -trace %d\n", *name, *traced)
		os.Exit(2)
	}
	rep, err := run(w, *seed, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(w workload, seed int64, traced bool) (*report, error) {
	ctx := context.Background()
	var ts []*target
	var setups []setupTimes
	for i := 0; i < setupReps; i++ {
		var st setupTimes
		var err error
		if ts, st, err = setup(w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, st)
	}
	if err := checkClasses(ts); err != nil {
		return nil, err
	}

	plain, err := runPass(ctx, w, ts, false)
	if err != nil {
		return nil, err
	}
	passes := []*pass{plain}
	if traced {
		tp, err := runPass(ctx, w, ts, true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, tp)
	}

	rep := &report{Metrics: map[string]metric{}, Fingerprints: fingerprints(plain)}
	for _, p := range passes {
		rep.Attempted += len(p.outs)
		for _, o := range p.outs {
			if o.fail != "" {
				rep.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", o.t.label(), o.fail)
			}
		}
	}
	rep.Correct = rep.Failed == 0
	if traced {
		if got := fingerprints(passes[1]); !reflect.DeepEqual(got, rep.Fingerprints) {
			fmt.Fprintf(os.Stderr, "perfbench: determinism: traced run differs from untraced run:\n  %v\n  %v\n", got, rep.Fingerprints)
			rep.Correct = false
		}
		st := setupTimes{
			build:     median(setups, func(s setupTimes) time.Duration { return s.build }),
			lock:      median(setups, func(s setupTimes) time.Duration { return s.lock }),
			fabricate: median(setups, func(s setupTimes) time.Duration { return s.fabricate }),
		}
		for k, v := range layerMetrics(passes[1], plain, st) {
			rep.Metrics[k] = metric{v, layerUnit(k)}
		}
		return rep, nil
	}
	var queries uint64
	for _, fp := range rep.Fingerprints {
		queries += fp.Queries
	}
	rep.Metrics["attack_s"] = metric{plain.attack.Seconds(), "s"}
	rep.Metrics["setup_s"] = metric{median(setups, setupTimes.total).Seconds(), "s"}
	rep.Metrics["cpu_s"] = metric{plain.cpu.Seconds(), "s"}
	rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.Metrics["oracle_queries"] = metric{float64(queries), "count"}
	return rep, nil
}

func fingerprints(p *pass) []fingerprint {
	fps := make([]fingerprint, len(p.outs))
	for i, o := range p.outs {
		fps[i] = o.fp
	}
	return fps
}

func median[T any](xs []T, f func(T) time.Duration) time.Duration {
	ds := make([]time.Duration, len(xs))
	for i, x := range xs {
		ds[i] = f(x)
	}
	slices.Sort(ds)
	if n := len(ds); n%2 == 0 {
		return (ds[n/2-1] + ds[n/2]) / 2
	}
	return ds[len(ds)/2]
}

func layerUnit(name string) string {
	switch {
	case name == "sat.props_per_s":
		return "1/s"
	case name == "runtime.alloc_mb":
		return "MB"
	case name == "satattack.tail_frac" || name == "bench.sweep_busy_frac":
		return "ratio"
	case len(name) > 2 && name[len(name)-2:] == "_s":
		return "s"
	}
	return "count"
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
