package cocoa

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cocoa/internal/checkpoint"
)

// ckptTestConfig is a small, fast deployment for checkpoint-machinery
// tests: 12 sampling ticks, full CoCoA pipeline.
func ckptTestConfig() Config {
	cfg := DefaultConfig()
	cfg.NumRobots = 8
	cfg.NumEquipped = 3
	cfg.DurationS = 120
	cfg.SampleIntervalS = 10
	cfg.GridCellM = 4
	cfg.Calibration.Samples = 20000
	return cfg
}

// stopAt returns an OnCheckpoint hook that stores the tick-k snapshot in
// *snap and stops the run there.
func stopAt(k int, snap **checkpoint.Snapshot) func(*checkpoint.Snapshot) error {
	return func(s *checkpoint.Snapshot) error {
		if s.TickIndex < k {
			return nil
		}
		*snap = s
		return checkpoint.ErrStop
	}
}

// TestCheckpointSpecExcludedFromJSON pins the design decision that
// checkpointing is operational, not experimental: CheckpointDir must not
// leak into the config's JSON form, or resumed/checkpointed runs would
// stop being byte-comparable to plain ones.
func TestCheckpointSpecExcludedFromJSON(t *testing.T) {
	cfg := ckptTestConfig()
	plain, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = "/somewhere"
	withSpec, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != string(withSpec) {
		t.Fatalf("CheckpointDir leaks into config JSON")
	}
}

// TestErrStopInterruptsRun exercises the harness's interrupt model: a hook
// returning checkpoint.ErrStop stops the run at the snapshot, and the
// snapshot resumes to a byte-identical result.
func TestErrStopInterruptsRun(t *testing.T) {
	cfg := ckptTestConfig()
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracleBytes, _ := json.Marshal(oracle)

	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap *checkpoint.Snapshot
	team.OnCheckpoint(stopAt(5, &snap))
	res, err := team.RunContext(context.Background())
	if res != nil || !errors.Is(err, checkpoint.ErrStop) {
		t.Fatalf("res=%v err=%v, want nil + ErrStop", res, err)
	}
	if snap == nil || snap.TickIndex != 5 {
		t.Fatalf("snapshot not captured at tick 5: %+v", snap)
	}
	resumed, err := ResumeFrom(context.Background(), snap)
	if err != nil {
		t.Fatalf("ResumeFrom: %v", err)
	}
	resumedBytes, _ := json.Marshal(resumed)
	if string(resumedBytes) != string(oracleBytes) {
		t.Fatalf("resume after ErrStop interrupt diverged from oracle")
	}
}

// TestFileSink drives Config.CheckpointDir end to end: a run canceled at
// tick k leaves latest.ckpt at tick k, and it resumes byte-identically; an
// uninterrupted run leaves no file at all.
func TestFileSink(t *testing.T) {
	cfg := ckptTestConfig()
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracleBytes, _ := json.Marshal(oracle)

	cfg.CheckpointDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resBytes, _ := json.Marshal(res); string(resBytes) != string(oracleBytes) {
		t.Fatalf("a checkpoint directory perturbed the run")
	}
	path := filepath.Join(cfg.CheckpointDir, CheckpointFile)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("uninterrupted run wrote a snapshot: %v", err)
	}

	snap := interruptAt(t, cfg, 5)
	if snap.TickIndex != 5 {
		t.Fatalf("latest.ckpt at tick %d, want 5", snap.TickIndex)
	}
	resumed, err := ResumeFrom(context.Background(), snap)
	if err != nil {
		t.Fatalf("ResumeFrom(latest.ckpt): %v", err)
	}
	if resumedBytes, _ := json.Marshal(resumed); string(resumedBytes) != string(oracleBytes) {
		t.Fatalf("resume from interrupt snapshot diverged from oracle")
	}

	// A snapshot that cannot be written is reported with the cancellation.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = blocker
	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := runCanceledAt(t, team, 5); !strings.Contains(err.Error(), "checkpoint:") {
		t.Fatalf("err=%v, want the failed snapshot write reported", err)
	}
}

// interruptAt runs cfg (which must set CheckpointDir), cancels it at tick
// k, and returns the snapshot the interrupted run left in CheckpointDir.
func interruptAt(t *testing.T, cfg Config, k int) *checkpoint.Snapshot {
	t.Helper()
	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runCanceledAt(t, team, k)
	snap, err := checkpoint.ReadFile(filepath.Join(cfg.CheckpointDir, CheckpointFile))
	if err != nil {
		t.Fatalf("read latest.ckpt: %v", err)
	}
	return snap
}

// runCanceledAt runs team with its context canceled from the OnCheckpoint
// hook at tick k, requires the run to stop with context.Canceled, and
// returns its error.
func runCanceledAt(t *testing.T, team *Team, k int) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	team.OnCheckpoint(func(s *checkpoint.Snapshot) error {
		if s.TickIndex == k {
			cancel()
		}
		return nil
	})
	_, err := team.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	return err
}

// TestInterruptBeforeVerifyKeepsSnapshot: a resumed run canceled before
// it reaches its snapshot's tick has verified nothing, so it must leave
// the snapshot it resumed from in place; canceled after that tick, it
// replaces it with the later, verified state.
func TestInterruptBeforeVerifyKeepsSnapshot(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.CheckpointDir = t.TempDir()
	snap := interruptAt(t, cfg, 8)
	path := filepath.Join(cfg.CheckpointDir, CheckpointFile)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resumeCanceledAt := func(k int) {
		t.Helper()
		team, err := ResumeTeam(cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		runCanceledAt(t, team, k)
	}
	resumeCanceledAt(3)
	if got, err := os.ReadFile(path); err != nil || string(got) != string(want) {
		t.Fatalf("interrupt before the verify tick replaced the snapshot (err=%v)", err)
	}
	resumeCanceledAt(10)
	later, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if later.TickIndex != 10 {
		t.Fatalf("interrupt after the verify tick left tick %d, want 10", later.TickIndex)
	}
}

// TestDivergenceDetection tampers with one digest of a real snapshot; the
// resume must fail with a DivergenceError naming exactly that subsystem.
func TestDivergenceDetection(t *testing.T) {
	cfg := ckptTestConfig()
	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap *checkpoint.Snapshot
	team.OnCheckpoint(stopAt(6, &snap))
	if _, err := team.RunContext(context.Background()); !errors.Is(err, checkpoint.ErrStop) {
		t.Fatal(err)
	}
	for i := range snap.Digests {
		if snap.Digests[i].Name == "mac" {
			snap.Digests[i].Sum ^= 1
		}
	}
	_, err = ResumeFrom(context.Background(), snap)
	var de *checkpoint.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("err=%v, want *DivergenceError", err)
	}
	if de.Tick != 6 || len(de.Subsystems) != 1 || de.Subsystems[0] != "mac" {
		t.Fatalf("divergence report %+v, want tick 6 subsystem [mac]", de)
	}
}

// TestLayoutDivergence: a snapshot whose digest set has a different shape
// (another code revision) reports the "layout" pseudo-subsystem.
func TestLayoutDivergence(t *testing.T) {
	cfg := ckptTestConfig()
	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap *checkpoint.Snapshot
	team.OnCheckpoint(stopAt(3, &snap))
	if _, err := team.RunContext(context.Background()); !errors.Is(err, checkpoint.ErrStop) {
		t.Fatal(err)
	}
	snap.Digests = append(snap.Digests, checkpoint.Digest{Name: "extra", Sum: 1})
	_, err = ResumeFrom(context.Background(), snap)
	var de *checkpoint.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("err=%v, want *DivergenceError", err)
	}
	if len(de.Subsystems) != 1 || de.Subsystems[0] != "layout" {
		t.Fatalf("divergence report %+v, want [layout]", de)
	}
}

// TestResumeValidation covers the rejection paths of the resume entry
// points.
func TestResumeValidation(t *testing.T) {
	if _, err := ConfigFromSnapshot(nil); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("nil snapshot: %v", err)
	}
	if _, err := ResumeTeam(ckptTestConfig(), nil); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("nil snapshot team: %v", err)
	}

	bad := &checkpoint.Snapshot{TickIndex: 0}
	if _, err := ResumeFrom(context.Background(), bad); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("invalid snapshot: %v", err)
	}

	// Config JSON that does not decode.
	junk := &checkpoint.Snapshot{
		TickIndex: 1, SimNowS: 10,
		ConfigJSON: []byte(`{"NumRobots":"many"}`),
		Digests:    []checkpoint.Digest{{Name: "sim"}},
	}
	if _, err := ConfigFromSnapshot(junk); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("undecodable config: %v", err)
	}

	// Config that decodes but fails validation.
	cfg := ckptTestConfig()
	cfg.NumRobots = 0
	cfgJSON, _ := json.Marshal(cfg)
	invalid := &checkpoint.Snapshot{
		TickIndex: 1, SimNowS: 10,
		ConfigJSON: cfgJSON,
		Digests:    []checkpoint.Digest{{Name: "sim"}},
	}
	if _, err := ConfigFromSnapshot(invalid); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("invalid embedded config: %v", err)
	}

	// Snapshot tick beyond what the run can reach.
	good := ckptTestConfig()
	goodJSON, _ := json.Marshal(good)
	beyond := &checkpoint.Snapshot{
		TickIndex: maxSampleTicks(good) + 1, SimNowS: 10,
		ConfigJSON: goodJSON,
		Digests:    []checkpoint.Digest{{Name: "sim"}},
	}
	if _, err := ResumeTeam(good, beyond); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("tick beyond run: %v", err)
	}
}

// TestResumeTeamScratch proves the replication path resumes on a recycled
// slot with the same bytes as a fresh resume.
func TestResumeTeamScratch(t *testing.T) {
	cfg := ckptTestConfig()
	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap *checkpoint.Snapshot
	team.OnCheckpoint(stopAt(7, &snap))
	if _, err := team.RunContext(context.Background()); !errors.Is(err, checkpoint.ErrStop) {
		t.Fatal(err)
	}

	fresh, err := ResumeFrom(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	freshBytes, _ := json.Marshal(fresh)

	sc := NewScratch()
	// Recycle the scratch through an unrelated run first so the resume
	// sees a dirty slot.
	if _, err := RunScratch(context.Background(), cfg, sc); err != nil {
		t.Fatal(err)
	}
	rcfg, err := ConfigFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	rteam, err := ResumeTeamScratch(rcfg, snap, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rteam.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resBytes, _ := json.Marshal(res)
	if string(resBytes) != string(freshBytes) {
		t.Fatalf("scratch resume diverged from fresh resume")
	}
}

// TestVerifyTickNeverReached: resuming under a config whose run ends
// before the snapshot's tick (validation passes, replay falls short) must
// fail loudly instead of returning an unverified result.
func TestVerifyTickNeverReached(t *testing.T) {
	cfg := ckptTestConfig()
	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap *checkpoint.Snapshot
	team.OnCheckpoint(stopAt(12, &snap))
	if _, err := team.RunContext(context.Background()); !errors.Is(err, checkpoint.ErrStop) {
		t.Fatal(err)
	}
	// Shorten the run under the caller-supplied config: 12 ticks become
	// 11.999… → 11, so tick 12 never fires, but ResumeTeam's up-front
	// check uses the same maxSampleTicks and rejects it immediately.
	short := cfg
	short.DurationS = 115
	if _, err := ResumeTeam(short, snap); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("tick-beyond-short-run: %v", err)
	}
}

// Earlier releases carried the MAC index and grid-statistics selectors as
// Config fields, so snapshots they wrote embed "NeighborIndex" and
// "GridStats" keys. Both selected result-equivalent reference paths; a
// snapshot still carrying them must resume to the bytes of an
// uninterrupted run of the same config.
func TestResumeIgnoresRetiredConfigKeys(t *testing.T) {
	cfg := ckptTestConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := json.Marshal(want)

	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap *checkpoint.Snapshot
	team.OnCheckpoint(stopAt(7, &snap))
	if _, err := team.RunContext(context.Background()); !errors.Is(err, checkpoint.ErrStop) {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(snap.ConfigJSON, &fields); err != nil {
		t.Fatal(err)
	}
	fields["NeighborIndex"] = "scan"
	fields["GridStats"] = "eager"
	if snap.ConfigJSON, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	// Round-trip through the file encoding, as a state dir would hold it.
	b, err := checkpoint.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = checkpoint.Unmarshal(b); err != nil {
		t.Fatal(err)
	}

	res, err := ResumeFrom(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(res); string(got) != string(wantBytes) {
		t.Error("resume of a snapshot with retired config keys diverged from the uninterrupted run")
	}
}
