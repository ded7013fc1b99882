// Package core implements the DynUnlock attack (paper Sec. III).
//
// The attack turns a dynamically scan-locked sequential circuit into a
// combinational locked circuit whose key inputs are the PRNG seed bits
// (Algorithm 1 / Fig. 4):
//
//	a'  =  a  ⊕  A·s        (scan-in masks)
//	(b', po) = C(a', pi)    (one capture of the combinational core)
//	b   =  b' ⊕  B·s        (scan-out masks)
//
// where s is the seed, and A, B are GF(2) matrices obtained by unrolling
// the LFSR across the scan session's clock cycles. The model is exact: the
// oracle chip's cycle-accurate simulation and this closed form agree bit
// for bit (tested in this package and in internal/oracle).
//
// The modeled circuit is then handed to the classic SAT attack
// (internal/satattack); every distinguishing input is applied to the real
// chip through the obfuscated scan chain, and on convergence the surviving
// seed assignments are enumerated. The linear-algebraic structure also
// yields an analytic prediction: the number of indistinguishable seeds is
// 2^(k − rank[A;B]), which the experiments cross-check against the SAT
// enumeration.
package core

import (
	"fmt"

	"dynunlock/internal/gf2"
	"dynunlock/internal/lfsr"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
	"dynunlock/internal/satattack"
	"dynunlock/internal/scan"
)

// Model is the combinational locked model of one scan session: the
// combinational core, unrolled once per capture cycle, between the scan-in
// and scan-out masks. The key inputs are the seed bits (ModeDirect, the
// paper's Fig. 4) or the structurally used mask bits of (u, v) = (A·s, B·s)
// (ModeLinear). Mask bits whose rows are zero (flops before the first key
// gate on the way in, after the last on the way out) are hard-wired to zero
// in both.
type Model struct {
	// Design is the locked design being modeled.
	Design *lock.Design
	// PatIdx is the pattern index modeled (0 unless studying PerPattern
	// epochs beyond the first).
	PatIdx int
	// Captures is the number of consecutive capture cycles modeled.
	Captures int
	// A and B are the scan-in and scan-out seed-mask matrices (n×k).
	A, B *gf2.Mat
	// UPos and VPos list, in ModeLinear, the flop indices whose u (resp. v)
	// mask bit is a key input, in key-vector order: the key vector is
	// u[UPos[0]], …, u[UPos[last]], v[VPos[0]], …, v[VPos[last]]. Both are
	// empty in ModeDirect.
	UPos, VPos []int
	// Netlist is the combinational model circuit. Inputs are ordered: the
	// original PIs (once per capture), chain bits a0…a(n-1), then the key
	// inputs: seed bits s0…s(k-1), or the used mask bits u then v. Outputs
	// are ordered: the original POs of each capture, then the observed
	// scan-out b0…b(n-1).
	Netlist *netlist.Netlist
	// Locked is the model packaged for the SAT attack.
	Locked *satattack.Locked
}

// MaskMatrices returns the session mask matrices (A, B) for one capture
// session at the given pattern index: scan-in bit j is XOR-masked by
// A.Row(j)·seed on the way in and scan-out bit j by B.Row(j)·seed on the
// way out. Observability layers (internal/insight) use them to linearize
// oracle responses over the seed without rebuilding the SAT model.
func MaskMatrices(d *lock.Design, patIdx int) (A, B *gf2.Mat, err error) {
	return maskMatricesN(d, patIdx, 1)
}

// maskMatricesN computes the scan-in matrix A and the scan-out matrix B
// for a session with the given number of consecutive captures. A is
// capture-count independent; B's term cycles shift with extra captures, so
// stacking single- and multi-capture constraints can raise the total rank —
// the paper's "carry over the seed information recovered from previous
// capture cycles" refinement.
func maskMatricesN(d *lock.Design, patIdx, captures int) (A, B *gf2.Mat, err error) {
	if captures < 1 {
		return nil, nil, fmt.Errorf("core: captures %d must be >= 1", captures)
	}
	if d.Nonlinear() {
		return nil, nil, fmt.Errorf("core: key register has nonlinear feedback; DynUnlock cannot model it (paper Sec. V)")
	}
	k := d.Config.KeyBits
	n := d.Chain.Length
	maxSteps := 0
	for cycle := 0; cycle <= d.Chain.SessionCyclesN(captures); cycle++ {
		if s := d.Config.Policy.Steps(patIdx, cycle, d.Config.Period); s > maxSteps {
			maxSteps = s
		}
	}
	rows, err := registerRows(d, maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	// Each mask row is the XOR of its terms' register rows, accumulated in
	// place in the matrix row.
	accumulate := func(dst gf2.Vec, terms []scan.Term) {
		for _, t := range terms {
			dst.Xor(rows(d.Config.Policy.Steps(patIdx, t.Cycle, d.Config.Period), t.KeyBit))
		}
	}
	A, B = gf2.NewMat(n, k), gf2.NewMat(n, k)
	for j := 0; j < n; j++ {
		accumulate(A.Row(j), d.Chain.InMaskTerms(j))
		accumulate(B.Row(j), d.Chain.OutMaskTermsN(j, captures))
	}
	return A, B, nil
}

// registerRows returns the symbolic key register for step counts
// 0..maxSteps: rows(t, i)·seed is register bit i after t steps. The rows
// are shared and read-only.
func registerRows(d *lock.Design, maxSteps int) (rows func(t, i int) gf2.Vec, err error) {
	if d.Config.Policy == scan.Static {
		id := gf2.Identity(d.Config.KeyBits)
		return func(_, i int) gf2.Vec { return id.Row(i) }, nil
	}
	u, err := lfsr.Unroll(d.Config.Poly, maxSteps)
	if err != nil {
		return nil, err
	}
	return u.Row, nil
}

// BuildModel constructs the combinational locked model for one capture
// session of the design (Algorithm 1, Fig. 4): the key inputs are the seed
// bits.
func BuildModel(d *lock.Design, patIdx int) (*Model, error) {
	return buildModel(d, patIdx, 1, ModeDirect)
}

// buildModel constructs the model of a session with the given number of
// captures, keyed for mode. Only the mask stage depends on the mode: a
// masked flop XORs a chain of seed bits in ModeDirect and one mask-bit key
// input in ModeLinear.
func buildModel(d *lock.Design, patIdx, captures int, mode Mode) (*Model, error) {
	if patIdx < 0 {
		return nil, fmt.Errorf("core: negative pattern index")
	}
	A, B, err := maskMatricesN(d, patIdx, captures)
	if err != nil {
		return nil, err
	}
	n := d.Chain.Length
	src := d.View
	model := &Model{Design: d, PatIdx: patIdx, Captures: captures, A: A, B: B}
	name := d.Netlist.Name + "-mask-model"
	if mode == ModeDirect {
		name = d.Netlist.Name + "-dynunlock-model"
	}
	if captures > 1 {
		name += fmt.Sprintf("-x%d", captures)
	}
	m := netlist.New(name)

	// input and xor keep the first netlist error in err; once it is set
	// they build nothing.
	input := func(name string) (id netlist.SignalID) {
		if err == nil {
			id, err = m.AddInput(name)
		}
		return id
	}
	xor := func(name string, a, b netlist.SignalID) (id netlist.SignalID) {
		if err == nil {
			id, err = m.AddGate(name, netlist.Xor, a, b)
		}
		return id
	}

	pis := make([][]netlist.SignalID, captures)
	for c := range pis {
		pis[c] = make([]netlist.SignalID, src.NumPI)
		for i := range pis[c] {
			if captures == 1 {
				pis[c][i] = input(fmt.Sprintf("pi%d", i))
			} else {
				pis[c][i] = input(fmt.Sprintf("pi%d_%d", c, i))
			}
		}
	}
	state := make([]netlist.SignalID, n)
	for j := range state {
		state[j] = input(fmt.Sprintf("a%d", j))
	}

	// maskIn and maskOut XOR flop j's scan-in (row j of A) and scan-out
	// (row j of B) mask onto base.
	var maskIn, maskOut func(j int, base netlist.SignalID) netlist.SignalID
	if mode == ModeDirect {
		seed := make([]netlist.SignalID, d.Config.KeyBits)
		for b := range seed {
			seed[b] = input(fmt.Sprintf("s%d", b))
		}
		// seedMask builds (XOR of seed bits in row) ⊕ base. The seed
		// sub-chain is built first so that CNF structural hashing shares it
		// across the per-DIP constraint copies, where base is a constant.
		seedMask := func(name string, row gf2.Vec, base netlist.SignalID) netlist.SignalID {
			ones := row.Ones()
			if len(ones) == 0 {
				return base
			}
			acc := seed[ones[0]]
			for _, b := range ones[1:] {
				acc = xor("", acc, seed[b])
			}
			return xor(name, acc, base)
		}
		maskIn = func(j int, base netlist.SignalID) netlist.SignalID {
			return seedMask(fmt.Sprintf("ap%d", j), A.Row(j), base)
		}
		maskOut = func(j int, base netlist.SignalID) netlist.SignalID {
			return seedMask(fmt.Sprintf("b%d", j), B.Row(j), base)
		}
	} else {
		// keyBits declares one mask-bit input per nonzero row of M.
		keyBits := func(prefix string, M *gf2.Mat) (pos []int, ids map[int]netlist.SignalID) {
			ids = make(map[int]netlist.SignalID)
			for j := 0; j < n; j++ {
				if !M.Row(j).IsZero() {
					ids[j] = input(fmt.Sprintf("%s%d", prefix, j))
					pos = append(pos, j)
				}
			}
			return pos, ids
		}
		var u, v map[int]netlist.SignalID
		model.UPos, u = keyBits("u", A)
		model.VPos, v = keyBits("v", B)
		maskIn = func(j int, base netlist.SignalID) netlist.SignalID {
			if key, ok := u[j]; ok {
				return xor(fmt.Sprintf("ap%d", j), base, key)
			}
			return base
		}
		maskOut = func(j int, base netlist.SignalID) netlist.SignalID {
			if key, ok := v[j]; ok {
				return xor(fmt.Sprintf("b%d", j), base, key)
			}
			return base
		}
	}

	for j := range state {
		state[j] = maskIn(j, state[j])
	}
	// Instantiate the combinational core once per capture, with PIs mapped
	// to that capture's pi block and present state to the previous
	// capture's next state (a' for the first).
	for c := 0; c < captures && err == nil; c++ {
		coreIn := make([]netlist.SignalID, len(src.Inputs))
		copy(coreIn, pis[c])
		copy(coreIn[src.NumPI:], state)
		var coreOut []netlist.SignalID
		if coreOut, err = appendComb(m, src, coreIn); err != nil {
			break
		}
		for _, po := range coreOut[:src.NumPO] {
			m.MarkOutput(po)
		}
		copy(state, coreOut[src.NumPO:])
	}
	for j := range state {
		m.MarkOutput(maskOut(j, state[j]))
	}
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: model netlist invalid: %w", err)
	}
	view, err := netlist.NewCombView(m)
	if err != nil {
		return nil, err
	}
	nonKey := captures*src.NumPI + n
	model.Netlist = m
	model.Locked = satattack.NewLocked(view, func(i int, _ netlist.SignalID) bool { return i >= nonKey })
	if err := model.Locked.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}

// appendComb clones the combinational logic of src into dst, substituting
// inMap[i] for src.Inputs[i]. It returns the dst signals corresponding to
// src.Outputs.
func appendComb(dst *netlist.Netlist, src *netlist.CombView, inMap []netlist.SignalID) ([]netlist.SignalID, error) {
	if len(inMap) != len(src.Inputs) {
		return nil, fmt.Errorf("core: input map length %d, want %d", len(inMap), len(src.Inputs))
	}
	n := src.N
	sub := make([]netlist.SignalID, n.NumSignals())
	have := make([]bool, n.NumSignals())
	for i, s := range src.Inputs {
		sub[s] = inMap[i]
		have[s] = true
	}
	for id := 0; id < n.NumSignals(); id++ {
		sid := netlist.SignalID(id)
		switch n.Type(sid) {
		case netlist.Const0, netlist.Const1:
			c, err := dst.AddConst("", n.Type(sid) == netlist.Const1)
			if err != nil {
				return nil, err
			}
			sub[sid] = c
			have[sid] = true
		}
	}
	for _, id := range src.Order {
		g := n.Gate(id)
		fan := make([]netlist.SignalID, len(g.Fanin))
		for i, f := range g.Fanin {
			if !have[f] {
				return nil, fmt.Errorf("core: signal %q used before mapped", n.SignalName(f))
			}
			fan[i] = sub[f]
		}
		nid, err := dst.AddGate("", g.Type, fan...)
		if err != nil {
			return nil, err
		}
		sub[id] = nid
		have[id] = true
	}
	out := make([]netlist.SignalID, len(src.Outputs))
	for i, s := range src.Outputs {
		if !have[s] {
			return nil, fmt.Errorf("core: output %q not produced", n.SignalName(s))
		}
		out[i] = sub[s]
	}
	return out, nil
}

// Rank returns rank([A;B]), the number of independent GF(2) constraints the
// scan obfuscation layer exposes about the seed.
func (m *Model) Rank() int {
	return gf2.Rank(gf2.VStack(m.A, m.B))
}

// PredictedCandidatesLog2 returns log2 of the analytically predicted number
// of indistinguishable seeds: k − rank([A;B]). The SAT enumeration must
// agree for non-degenerate cores (verified in tests).
func (m *Model) PredictedCandidatesLog2() int {
	return m.Design.Config.KeyBits - m.Rank()
}

// MaskVector expands a ModeLinear key assignment (ordered per UPos then
// VPos) into the full 2n-bit (u‖v) vector with structural zeros filled in.
func (m *Model) MaskVector(key []bool) gf2.Vec {
	n := m.Design.Chain.Length
	if len(key) != len(m.UPos)+len(m.VPos) {
		panic(fmt.Sprintf("core: mask key length %d, want %d", len(key), len(m.UPos)+len(m.VPos)))
	}
	uv := gf2.NewVec(2 * n)
	for i, j := range m.UPos {
		uv.Set(j, key[i])
	}
	for i, j := range m.VPos {
		uv.Set(n+j, key[len(m.UPos)+i])
	}
	return uv
}
