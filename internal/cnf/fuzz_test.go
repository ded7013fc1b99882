package cnf

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseDimacs feeds arbitrary text to the DIMACS+XOR parser. It must
// never panic, and a parsed formula must survive WriteDimacs and a second
// parse with the same variable count, clauses and XOR rows.
//
//	go test -run xxx -fuzz FuzzParseDimacs -fuzztime 10s ./internal/cnf/
func FuzzParseDimacs(f *testing.F) {
	for _, seed := range []string{
		"p cnf 3 2\n1 -2 0\n2 3 0\n",
		"c comment\np cnf 2 1\n1 2\n",
		"p cnf 4 3\n1 2 0\nx 1 2 3 0\nx -3 4 0\n",
		"x1 2 0\nx 0\n0\n",
		"p cnf 2 1\n1 -2 0\n%\n0\n",
		"p cnf 5 0\nx 1\n2 3 0\n",
		"p cnf 3000000000 0\n",
		"1073741824 0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := ParseDimacs(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := f1.WriteDimacs(&buf); err != nil {
			t.Fatal(err)
		}
		f2, err := ParseDimacs(&buf)
		if err != nil {
			t.Fatalf("re-parse of written formula: %v\n%s", err, buf.String())
		}
		if f1.NumVars != f2.NumVars {
			t.Fatalf("NumVars %d, round trip %d", f1.NumVars, f2.NumVars)
		}
		if !sameRows(f1.Clauses, f2.Clauses) {
			t.Fatalf("clauses %v, round trip %v", f1.Clauses, f2.Clauses)
		}
		var x1, x2 []Clause
		for _, x := range f1.Xors {
			x1 = append(x1, Clause(x))
		}
		for _, x := range f2.Xors {
			x2 = append(x2, Clause(x))
		}
		if !sameRows(x1, x2) {
			t.Fatalf("xor rows %v, round trip %v", f1.Xors, f2.Xors)
		}
	})
}

// sameRows compares two row lists, treating nil and empty rows alike.
func sameRows(a, b []Clause) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || (len(a[i]) > 0 && !reflect.DeepEqual(a[i], b[i])) {
			return false
		}
	}
	return true
}
