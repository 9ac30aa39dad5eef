// Package difftest is the differential replay harness behind the
// checkpoint/resume guarantee: for a given config it proves that
// interrupting the run at EVERY sampling tick and resuming from the
// snapshot yields a Result byte-identical to the uninterrupted run — and
// that the resumed runs count the same telemetry (each team's own
// counters and histograms, read through Team.Telemetry).
//
// The harness runs the config four ways:
//
//  1. an oracle run, untouched by checkpointing;
//  2. one instrumented run that captures a wire-encoded snapshot at every
//     sampling tick through the OnCheckpoint test hook and must still
//     finish byte-identical to the oracle (proof that observing the run
//     does not perturb it);
//  3. one resume per captured snapshot — each decoded from its wire bytes
//     and continued to completion via ResumeFrom, modelling a process
//     that died right after persisting that checkpoint;
//  4. a few runs through the production path, Config.CheckpointDir with
//     the context canceled at a sampled tick: the latest.ckpt each leaves
//     must be byte-equal to the hook's capture at that tick and resume to
//     the oracle.
//
// The harness lives in its own package so any test — the suite here, the
// serve restart test, future scenario suites — can assert the same
// contract with one call.
package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"cocoa/internal/checkpoint"
	"cocoa/internal/cocoa"
)

// Run asserts the checkpoint/resume contract for cfg: every sampling tick
// is a safe interruption point. It fails the test with the first tick (and
// diverged subsystems, when digest verification catches it) otherwise.
func Run(t testing.TB, cfg cocoa.Config) {
	t.Helper()
	ctx := context.Background()

	oracleBytes, oracleTel := oracleRun(t, ctx, cfg)

	// One instrumented pass captures the wire bytes of a snapshot at every
	// sampling tick; observing must not perturb the run.
	snaps, instrBytes, instrTel := capturePass(t, ctx, cfg)
	if string(instrBytes) != string(oracleBytes) {
		t.Fatalf("difftest: capturing checkpoints perturbed the run: result bytes differ from oracle")
	}
	if instrTel != oracleTel {
		t.Fatalf("difftest: capturing checkpoints perturbed telemetry:\noracle: %s\ncapture: %s", oracleTel, instrTel)
	}
	if len(snaps) == 0 {
		t.Fatalf("difftest: run produced no snapshots (config too short to sample?)")
	}

	for _, wire := range snaps {
		snap, err := checkpoint.Unmarshal(wire)
		if err != nil {
			t.Fatalf("difftest: decode captured snapshot: %v", err)
		}
		resBytes, resTel := resumeRun(t, ctx, snap)
		if string(resBytes) != string(oracleBytes) {
			t.Fatalf("difftest: resume from tick %d diverged from oracle result bytes", snap.TickIndex)
		}
		if resTel != oracleTel {
			t.Fatalf("difftest: resume from tick %d left different telemetry:\noracle: %s\nresumed: %s",
				snap.TickIndex, oracleTel, resTel)
		}
	}

	// The production interrupt path, at the first, middle and last tick.
	for _, k := range []int{1, (len(snaps) + 1) / 2, len(snaps)} {
		wire := interruptRun(t, ctx, cfg, k)
		if !bytes.Equal(wire, snaps[k-1]) {
			t.Fatalf("difftest: snapshot written on interrupt at tick %d differs from the hook's capture", k)
		}
		snap, err := checkpoint.Unmarshal(wire)
		if err != nil {
			t.Fatalf("difftest: decode interrupt snapshot: %v", err)
		}
		resBytes, resTel := resumeRun(t, ctx, snap)
		if !bytes.Equal(resBytes, oracleBytes) {
			t.Fatalf("difftest: resume from interrupt at tick %d diverged from oracle result bytes", k)
		}
		if resTel != oracleTel {
			t.Fatalf("difftest: resume from interrupt at tick %d left different telemetry", k)
		}
	}
}

// interruptRun executes cfg with a CheckpointDir, cancels its context
// from the hook at tick k, and returns the latest.ckpt the run left.
func interruptRun(t testing.TB, ctx context.Context, cfg cocoa.Config, k int) []byte {
	t.Helper()
	cfg.CheckpointDir = t.TempDir()
	team, err := cocoa.NewTeam(cfg)
	if err != nil {
		t.Fatalf("difftest: build interrupt team: %v", err)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	team.OnCheckpoint(func(s *checkpoint.Snapshot) error {
		if s.TickIndex == k {
			cancel()
		}
		return nil
	})
	if _, err := team.RunContext(rctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("difftest: run canceled at tick %d: err=%v, want context.Canceled", k, err)
	}
	wire, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, cocoa.CheckpointFile))
	if err != nil {
		t.Fatalf("difftest: interrupt at tick %d left no snapshot: %v", k, err)
	}
	return wire
}

// oracleRun executes cfg untouched and returns its result bytes and
// telemetry.
func oracleRun(t testing.TB, ctx context.Context, cfg cocoa.Config) ([]byte, string) {
	t.Helper()
	team, err := cocoa.NewTeam(cfg)
	if err != nil {
		t.Fatalf("difftest: build oracle team: %v", err)
	}
	res, err := team.RunContext(ctx)
	if err != nil {
		t.Fatalf("difftest: oracle run: %v", err)
	}
	return resultBytes(t, res), telString(t, team)
}

// capturePass executes cfg once with a snapshot captured at every
// sampling tick, returning the wire bytes per tick plus the run's result
// bytes and telemetry.
func capturePass(t testing.TB, ctx context.Context, cfg cocoa.Config) ([][]byte, []byte, string) {
	t.Helper()
	team, err := cocoa.NewTeam(cfg)
	if err != nil {
		t.Fatalf("difftest: build capture team: %v", err)
	}
	var snaps [][]byte
	team.OnCheckpoint(func(s *checkpoint.Snapshot) error {
		b, err := checkpoint.Marshal(s)
		if err != nil {
			return err
		}
		snaps = append(snaps, b)
		return nil
	})
	res, err := team.RunContext(ctx)
	if err != nil {
		t.Fatalf("difftest: capture run: %v", err)
	}
	return snaps, resultBytes(t, res), telString(t, team)
}

// PollCanceled returns a context that cancels itself on its k-th Err
// poll. The simulation loop polls Err once at the end of every sampling
// tick, so a run (or a serial sweep) under it is interrupted mid-flight
// at a fixed point with no timing involved — the tests' stand-in for
// SIGINT when the run is built out of reach of OnCheckpoint.
func PollCanceled(k int64) context.Context {
	return &pollCanceled{Context: context.Background(), done: make(chan struct{}), k: k}
}

type pollCanceled struct {
	context.Context
	done  chan struct{}
	polls atomic.Int64
	k     int64
}

func (c *pollCanceled) Done() <-chan struct{} { return c.done }

func (c *pollCanceled) Err() error {
	n := c.polls.Add(1)
	if n == c.k {
		close(c.done)
	}
	if n >= c.k {
		return context.Canceled
	}
	return nil
}

// resumeRun continues snap to completion, as cocoa.ResumeFrom does, and
// returns the resumed run's result bytes and telemetry.
func resumeRun(t testing.TB, ctx context.Context, snap *checkpoint.Snapshot) ([]byte, string) {
	t.Helper()
	cfg, err := cocoa.ConfigFromSnapshot(snap)
	if err != nil {
		t.Fatalf("difftest: decode snapshot config at tick %d: %v", snap.TickIndex, err)
	}
	team, err := cocoa.ResumeTeam(cfg, snap)
	if err != nil {
		t.Fatalf("difftest: build resume team at tick %d: %v", snap.TickIndex, err)
	}
	res, err := team.RunContext(ctx)
	if err != nil {
		t.Fatalf("difftest: resume from tick %d: %v", snap.TickIndex, err)
	}
	return resultBytes(t, res), telString(t, team)
}

// resultBytes is the byte-identity standard: the canonical JSON encoding
// of the full Result.
func resultBytes(t testing.TB, res *cocoa.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("difftest: encode result: %v", err)
	}
	return b
}

// telString renders a finished team's telemetry (name-sorted counters and
// histograms) for comparison.
func telString(t testing.TB, team *cocoa.Team) string {
	t.Helper()
	b, err := json.Marshal(team.Telemetry())
	if err != nil {
		t.Fatalf("difftest: encode telemetry: %v", err)
	}
	return string(b)
}
