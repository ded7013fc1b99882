package encode_test

import (
	"math/rand"
	"testing"

	"dynunlock/internal/aig"
	"dynunlock/internal/bench"
	"dynunlock/internal/cnf"
	"dynunlock/internal/core"
	"dynunlock/internal/encode"
	"dynunlock/internal/lock"
	"dynunlock/internal/sat"
	"dynunlock/internal/satattack"
	"dynunlock/internal/scan"
)

// benchModel compiles the direct-mode DynUnlock model of s5378 with a
// 128-bit per-cycle key (a Table II row) to the attack's AIG.
func benchModel(b *testing.B) (*satattack.Locked, *aig.Graph) {
	entry, ok := bench.ByName("s5378")
	if !ok {
		b.Fatal("unknown benchmark s5378")
	}
	n, err := entry.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: 128, Policy: scan.PerCycle})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.BuildModel(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	g, err := aig.FromCombView(m.Locked.View)
	if err != nil {
		b.Fatal(err)
	}
	return m.Locked, g
}

// BenchmarkEncodeAIG times one circuit copy on a fresh native-XOR encoder,
// as the attack adds them: a fresh-key copy over free input literals (the
// two key copies of the miter), and a DIP copy whose attacker inputs are
// constants and whose key literals are free.
func BenchmarkEncodeAIG(b *testing.B) {
	l, g := benchModel(b)
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		dip  bool
	}{{"fresh", false}, {"dip", true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := encode.NewWithConfig(sat.New(), encode.Config{NativeXor: true})
				full := make([]cnf.Lit, len(l.View.Inputs))
				for _, idx := range l.KeyIdx {
					full[idx] = e.Fresh()
				}
				for _, idx := range l.InIdx {
					if tc.dip {
						full[idx] = e.Const(rng.Intn(2) == 1)
					} else {
						full[idx] = e.Fresh()
					}
				}
				b.StartTimer()
				e.EncodeAIG(g, full)
			}
		})
	}
}
