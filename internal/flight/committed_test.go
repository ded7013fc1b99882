package flight

import (
	"context"
	"testing"
)

// Committed bundles replay bit-identically: neither the key-consistency
// checker nor the one-instance attack engine changes the DIP sequence, the
// candidate set or any other deterministic result column of a recording.
// The set covers every committed pipeline variant: the default pipeline at
// paper scale (128-bit s5378 and s13207), the insight feedback loop with its
// analytic short-circuit (affine_xor), native XOR rows on the direct-encode
// path (table2_parallel1_xor), and the legacy direct-encode path
// (table2_parallel1: no AIG, no inprocessing, pure CNF).
func TestCommittedBundlesReplayIdentically(t *testing.T) {
	for _, dir := range []string{
		"../../bench/bundles/paper128/s5378",
		"../../bench/bundles/paper128/s13207",
		"../../bench/bundles/affine_xor",
		"../../bench/bundles/table2_parallel1_xor/table2_s5378",
		"../../bench/bundles/table2_parallel1/table2_s5378",
	} {
		b, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := b.Replay(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if diffs := Compare(&b.Result, replayed); len(diffs) > 0 {
			t.Errorf("%s: replay diverged from the recording: %v", dir, diffs)
		}
	}
}
