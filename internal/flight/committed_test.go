package flight

import (
	"context"
	"testing"
)

// Bundles recorded before exact early termination existed still replay
// bit-identically: the key-consistency checker never changes the DIP
// sequence, the candidate set or any other deterministic result column.
// The set covers the default pipeline at paper scale (128-bit s5378 and
// s13207) and the legacy direct-encode path (table2_parallel1: no AIG, no
// inprocessing, pure CNF).
func TestCommittedBundlesReplayIdentically(t *testing.T) {
	for _, dir := range []string{
		"../../bench/bundles/paper128/s5378",
		"../../bench/bundles/paper128/s13207",
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
