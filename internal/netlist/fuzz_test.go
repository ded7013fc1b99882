package netlist_test

import (
	"bytes"
	"strings"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/netlist"
)

// FuzzParseBench feeds arbitrary text to the .bench parser. Every input
// yields either an error or a netlist, never both or neither, and a parsed
// netlist always gets a combinational view or an error from NewCombView —
// never a panic.
//
//	go test -run xxx -fuzz FuzzParseBench -fuzztime 10s ./internal/netlist/
func FuzzParseBench(f *testing.F) {
	var s208 bytes.Buffer
	if err := bench.S208F().WriteBench(&s208); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		s208.String(),
		netlist.S27ish,
		"INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)",
		"INPUT(a)\nOUTPUT(q)\nq = DFF(q)",
		"INPUT(a)\nOUTPUT(y)\ny = OR(a, y)",
		"INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(m)\nm = MUX(s, a, b)\nc = vcc",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := netlist.ParseBench(strings.NewReader(src), "fuzz")
		if (n == nil) == (err == nil) {
			t.Fatalf("ParseBench returned netlist=%v err=%v", n != nil, err)
		}
		if err != nil {
			return
		}
		if v, err := netlist.NewCombView(n); (v == nil) == (err == nil) {
			t.Fatalf("NewCombView returned view=%v err=%v", v != nil, err)
		}
	})
}
