package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The walkthrough is deterministic: Fig. 1, the key schedule, the
// Algorithm 1 masks, the Fig. 4 .bench text and the attack log must match
// the recorded output byte for byte.
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, golden has %d", len(gl), len(wl))
}
