package flight_test

// Resume tests: a job killed mid-attack leaves a partial bundle (manifest
// plus a transcript prefix, usually no result.json). OpenPartial must load
// that prefix leniently, and a ResumeChip chained in front of a freshly
// fabricated live chip must reconstruct the interrupted attack exactly —
// same candidate set, same iteration count — because a one-instance attack
// re-asks the recorded prefix verbatim.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynunlock"
	"dynunlock/internal/core"
	"dynunlock/internal/flight"
)

func TestOpenPartialCompleteBundleMatchesOpen(t *testing.T) {
	cfg := roundTripConfigs()["s5378"]
	dir, _ := recordExperiment(t, cfg)
	full, err := flight.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	part, err := flight.OpenPartial(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Sessions) != len(full.Sessions) || len(part.DIPs) != len(full.DIPs) {
		t.Fatalf("partial load saw %d sessions / %d dips, strict load %d / %d",
			len(part.Sessions), len(part.DIPs), len(full.Sessions), len(full.DIPs))
	}
	if len(part.Result.Trials) != len(full.Result.Trials) {
		t.Fatalf("partial load saw %d result trials, strict load %d",
			len(part.Result.Trials), len(full.Result.Trials))
	}
}

func TestOpenPartialToleratesCrashArtifacts(t *testing.T) {
	cfg := roundTripConfigs()["s5378"]
	dir, _ := recordExperiment(t, cfg)
	full, err := flight.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A crashed run has no result.json and a torn final transcript line.
	if err := os.Remove(filepath.Join(dir, flight.ResultFile)); err != nil {
		t.Fatal(err)
	}
	dips := filepath.Join(dir, flight.DIPsFile)
	f, err := os.OpenFile(dips, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trial":0,"iter`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	part, err := flight.OpenPartial(dir)
	if err != nil {
		t.Fatalf("OpenPartial on crash artifacts: %v", err)
	}
	if len(part.Result.Trials) != 0 {
		t.Fatalf("expected empty result, got %d trials", len(part.Result.Trials))
	}
	if len(part.DIPs) != len(full.DIPs) {
		t.Fatalf("torn tail changed DIP count: %d != %d", len(part.DIPs), len(full.DIPs))
	}
	if _, err := flight.Open(dir); err == nil {
		t.Fatal("strict Open accepted a bundle with no result.json")
	}
}

func TestOpenPartialRejectsMidFileCorruption(t *testing.T) {
	cfg := roundTripConfigs()["s5378"]
	dir, _ := recordExperiment(t, cfg)
	oracle := filepath.Join(dir, flight.OracleFile)
	data, err := os.ReadFile(oracle)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("need >=3 oracle lines, have %d", len(lines))
	}
	lines[1] = `{"broken`
	if err := os.WriteFile(oracle, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = flight.OpenPartial(dir)
	if !errors.Is(err, flight.ErrCorrupt) {
		t.Fatalf("mid-file corruption: got %v, want ErrCorrupt", err)
	}
}

func TestOpenPartialMissingTranscriptsIsEmptyPrefix(t *testing.T) {
	cfg := roundTripConfigs()["s5378"]
	dir, _ := recordExperiment(t, cfg)
	for _, name := range []string{flight.OracleFile, flight.DIPsFile, flight.ResultFile} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	part, err := flight.OpenPartial(dir)
	if err != nil {
		t.Fatalf("OpenPartial with missing transcripts: %v", err)
	}
	if len(part.Sessions) != 0 || len(part.DIPs) != 0 {
		t.Fatalf("expected empty prefix, got %d sessions / %d dips", len(part.Sessions), len(part.DIPs))
	}
}

// truncateJSONL keeps the first n lines of a JSONL file.
func truncateJSONL(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if n > len(lines) {
		n = len(lines)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:n], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeChipReconstructsInterruptedRun is the crash-resume round trip:
// record a complete run, keep only a prefix of its transcripts (as a killed
// durable recorder would), then re-run the same config with a ResumeChip
// chained in front of a freshly fabricated live chip. The resumed result
// must be identical to the uninterrupted one, and part of the work must
// actually have been served from the transcript.
func TestResumeChipReconstructsInterruptedRun(t *testing.T) {
	cfg := dynunlock.ExperimentConfig{Benchmark: "s5378", KeyBits: 16,
		Policy: dynunlock.PerCycle, Scale: 16, Trials: 1, SeedBase: 7}
	dir, uninterrupted := recordExperiment(t, cfg)
	full, err := flight.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Sessions) < 4 {
		t.Fatalf("need >=4 sessions to truncate meaningfully, have %d", len(full.Sessions))
	}

	// Simulate the crash: keep half the oracle transcript, a third of the
	// DIP log, drop the result.
	truncateJSONL(t, filepath.Join(dir, flight.OracleFile), len(full.Sessions)/2)
	truncateJSONL(t, filepath.Join(dir, flight.DIPsFile), len(full.DIPs)/3+1)
	if err := os.Remove(filepath.Join(dir, flight.ResultFile)); err != nil {
		t.Fatal(err)
	}

	part, err := flight.OpenPartial(dir)
	if err != nil {
		t.Fatal(err)
	}
	design, err := part.Design()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*flight.SessionRecord, 0, len(part.Sessions))
	for i := range part.Sessions {
		if part.Sessions[i].Trial == 0 {
			recs = append(recs, &part.Sessions[i])
		}
	}
	replay := flight.NewReplay(design, recs)

	var resumeChip *flight.ResumeChip
	resumed := cfg
	resumed.ChipWrapper = func(trial int, chip core.Chip) core.Chip {
		if trial != 0 {
			return chip
		}
		resumeChip = flight.NewResumeChip(replay, chip)
		return resumeChip
	}
	res, err := dynunlock.RunExperimentCtx(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if resumeChip == nil {
		t.Fatal("ChipWrapper never invoked")
	}
	if got := resumeChip.ServedFromTranscript(); got == 0 {
		t.Fatal("resume served nothing from the transcript prefix")
	}
	want, got := uninterrupted.Trials[0], res.Trials[0]
	if got.Candidates != want.Candidates || got.Iterations != want.Iterations ||
		got.Queries != want.Queries || got.Success != want.Success {
		t.Fatalf("resumed run diverged: candidates/iters/queries/success %d/%d/%d/%v != %d/%d/%d/%v",
			got.Candidates, got.Iterations, got.Queries, got.Success,
			want.Candidates, want.Iterations, want.Queries, want.Success)
	}
}

// TestDurableRecorderLeavesLoadablePrefix pins the crash-safety contract a
// resume depends on: with SetDurable the transcripts are flushed record by
// record, so a process killed before Close still leaves the full prefix on
// disk. We model the kill by loading the bundle before Close.
func TestDurableRecorderLeavesLoadablePrefix(t *testing.T) {
	cfg := dynunlock.ExperimentConfig{Benchmark: "s5378", KeyBits: 16,
		Policy: dynunlock.PerCycle, Scale: 16, Trials: 1, SeedBase: 7}
	dir := t.TempDir()
	rec, err := flight.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec.Tool = "test"
	rec.SetDurable(true)
	cfg.Recorder = rec
	res, err := dynunlock.RunExperimentCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" happens here: nothing has been Closed or flushed explicitly.
	part, err := flight.OpenPartial(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Sessions cover DIP queries plus verification/enumeration probes, so
	// the durable prefix must hold at least the query count.
	if len(part.Sessions) < res.Trials[0].Queries || len(part.Sessions) == 0 {
		t.Fatalf("durable prefix has %d sessions, live run made %d queries",
			len(part.Sessions), res.Trials[0].Queries)
	}
	if len(part.DIPs) != res.Trials[0].Iterations {
		t.Fatalf("durable prefix has %d dips, live run had %d iterations",
			len(part.DIPs), res.Trials[0].Iterations)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}
