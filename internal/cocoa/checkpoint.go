package cocoa

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"

	"cocoa/internal/checkpoint"
	"cocoa/internal/sim"
)

// CheckpointFile is the snapshot a run with Config.CheckpointDir writes
// into that directory when it is interrupted.
const CheckpointFile = "latest.ckpt"

// OnCheckpoint arms a test hook on a team that has not run yet: after
// every sampling tick a snapshot is captured and handed to fn. fn runs on
// the event loop; returning an error stops the run and RunContext returns
// that error — returning checkpoint.ErrStop is the idiomatic "stop here,
// the snapshot is the output" (the differential harness's interrupt
// model). The hook is independent of Config.CheckpointDir.
func (t *Team) OnCheckpoint(fn func(*checkpoint.Snapshot) error) { t.ckptHook = fn }

// maxSampleTicks is how many sampling ticks a run of cfg executes (ticks
// fire at SampleIntervalS, 2·SampleIntervalS, …, up to DurationS
// inclusive).
func maxSampleTicks(cfg Config) int {
	return int(math.Floor(float64(cfg.DurationS)/float64(cfg.SampleIntervalS) + 1e-9))
}

// onSampleTick runs the checkpoint machinery at the end of every sampling
// tick: first verify a pending resume snapshot if this is its tick, then
// hand a capture to the OnCheckpoint hook. Any error stops the event loop
// and is surfaced by RunContext.
func (t *Team) onSampleTick(res *Result, now sim.Time) {
	if t.verify != nil && t.ticks == t.verify.TickIndex {
		snap := t.verify
		t.verify = nil
		if err := t.verifyDigests(snap, res); err != nil {
			t.ckptErr = err
			t.sim.Stop()
			return
		}
	}
	if t.ckptHook != nil {
		if err := t.capture(res, now, t.ckptHook); err != nil {
			t.ckptErr = err
			t.sim.Stop()
		}
	}
}

// onInterrupt runs at the sampling tick where a canceled run stops: with a
// CheckpointDir it writes the run's only snapshot there. A resumed run
// that has not yet verified its snapshot leaves the existing file alone
// rather than replace it with an unverified capture.
func (t *Team) onInterrupt(res *Result, now sim.Time) {
	if t.cfg.CheckpointDir == "" || t.verify != nil || t.ckptErr != nil {
		return
	}
	path := filepath.Join(t.cfg.CheckpointDir, CheckpointFile)
	if err := t.capture(res, now, func(s *checkpoint.Snapshot) error {
		return checkpoint.WriteFile(path, s)
	}); err != nil {
		t.ckptErr = err
	}
}

// capture takes a snapshot at the current tick and hands it to sink.
func (t *Team) capture(res *Result, now sim.Time, sink func(*checkpoint.Snapshot) error) error {
	cfgJSON, err := json.Marshal(t.cfg)
	if err != nil {
		return fmt.Errorf("cocoa: checkpoint config: %w", err)
	}
	if t.tracer != nil {
		t.tracer.Instant(0, "checkpoint", float64(now), map[string]any{"tick": t.ticks})
	}
	return sink(&checkpoint.Snapshot{
		TickIndex:  t.ticks,
		SimNowS:    float64(now),
		ConfigJSON: cfgJSON,
		Digests:    t.digests(res),
	})
}

// stateHasher is the capability every digestable subsystem implements.
type stateHasher interface {
	HashState(h *checkpoint.Hasher)
}

// digests fingerprints every deterministic subsystem at a tick boundary,
// in a fixed order. All HashState implementations are side-effect free, so
// taking a snapshot cannot perturb the run. The set is chosen for
// bisection power, not completeness — resume correctness comes from
// deterministic replay, and state not digested individually (e.g. the
// geounicast agents' neighbor caches) still reflects into the rng, mac,
// and result digests through its effects.
func (t *Team) digests(res *Result) []checkpoint.Digest {
	ds := make([]checkpoint.Digest, 0, 10)
	add := func(name string, fn func(h *checkpoint.Hasher)) {
		h := checkpoint.NewHasher()
		fn(h)
		ds = append(ds, checkpoint.Digest{Name: name, Sum: h.Sum()})
	}
	add("sim", func(h *checkpoint.Hasher) {
		h.F64(float64(t.sim.Now()))
		h.U64(t.sim.Processed())
		h.Int(t.sim.Pending())
	})
	add("rng", t.root.HashTree)
	add("mobility", func(h *checkpoint.Hasher) {
		for _, r := range t.robots {
			r.way.HashState(h)
		}
	})
	add("odometry", func(h *checkpoint.Hasher) {
		for _, r := range t.robots {
			r.reckoner.HashState(h)
		}
	})
	add("localizer", func(h *checkpoint.Hasher) {
		for _, r := range t.robots {
			hs, ok := r.loc.(stateHasher)
			h.Bool(ok)
			if ok {
				hs.HashState(h)
			}
		}
	})
	add("robots", func(h *checkpoint.Hasher) {
		for _, r := range t.robots {
			h.F64(r.estimate.X)
			h.F64(r.estimate.Y)
			h.Bool(r.haveFix)
			h.Bool(r.scheduleKnown)
			h.F64(r.clockErr)
			h.Bool(r.syncedThisPeriod)
			h.Bool(r.failed)
			h.Bool(r.crashed)
			h.F64(r.lastSyncPos.X)
			h.F64(r.lastSyncPos.Y)
			h.Bool(r.haveSyncPos)
			h.F64(r.lastTruePos.X)
			h.F64(r.lastTruePos.Y)
			h.Int(len(r.pending))
			for i := range r.pending {
				h.F64(r.pending[i].pos.X)
				h.F64(r.pending[i].pos.Y)
			}
			h.Int(r.fixes)
			h.Int(r.missedWindows)
			h.Int(r.beaconsApplied)
			h.Int(r.syncsReceived)
		}
		h.Int(t.reportsSent)
		h.Int(t.reportsDelivered)
		h.Int(t.reportHops)
		h.Int(t.crashes)
	})
	add("mac", t.med.HashState)
	add("energy", func(h *checkpoint.Hasher) {
		for _, r := range t.robots {
			r.nic.Meter().HashState(h)
		}
	})
	add("faults", func(h *checkpoint.Hasher) {
		h.Int(len(t.links))
		for _, l := range t.links {
			l.HashState(h)
		}
	})
	add("result", func(h *checkpoint.Hasher) {
		h.Int(len(res.Times))
		for i := range res.Times {
			h.F64(res.Times[i])
			h.F64(res.AvgError[i])
		}
		for i := range res.PerRobot {
			for _, v := range res.PerRobot[i] {
				h.F64(v)
			}
		}
	})
	return ds
}

// verifyDigests compares the replayed state against the snapshot at its
// capture tick. A digest-set shape difference (another code revision wrote
// the snapshot) reports the pseudo-subsystem "layout".
func (t *Team) verifyDigests(snap *checkpoint.Snapshot, res *Result) error {
	live := t.digests(res)
	layoutOK := len(live) == len(snap.Digests)
	if layoutOK {
		for i := range live {
			if live[i].Name != snap.Digests[i].Name {
				layoutOK = false
				break
			}
		}
	}
	if !layoutOK {
		return &checkpoint.DivergenceError{Tick: t.ticks, Subsystems: []string{"layout"}}
	}
	var bad []string
	for i := range live {
		if live[i].Sum != snap.Digests[i].Sum {
			bad = append(bad, live[i].Name)
		}
	}
	if len(bad) > 0 {
		return &checkpoint.DivergenceError{Tick: t.ticks, Subsystems: bad}
	}
	return nil
}

// ConfigFromSnapshot decodes and validates the run configuration embedded
// in snap. Malformed snapshots fail with a *checkpoint.FormatError
// (wrapping checkpoint.ErrCorrupt); configurations that decode but fail
// validation surface the usual *ConfigError.
func ConfigFromSnapshot(snap *checkpoint.Snapshot) (Config, error) {
	if snap == nil {
		return Config{}, &checkpoint.FormatError{Reason: "nil snapshot"}
	}
	if err := snap.Validate(); err != nil {
		return Config{}, err
	}
	var cfg Config
	if err := json.Unmarshal(snap.ConfigJSON, &cfg); err != nil {
		return Config{}, &checkpoint.FormatError{Reason: fmt.Sprintf("decode config: %v", err)}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// ResumeTeamScratch builds the replay team continuing snap under cfg on a
// reusable run slot (nil sc degenerates to a fresh team). cfg is normally
// ConfigFromSnapshot's output, optionally with operational fields (e.g.
// CheckpointDir) overridden; semantic divergence from the snapshot's config
// is caught by digest verification at the capture tick, so a tampered cfg
// cannot silently masquerade as a resumed run. Running the returned team
// replays from tick zero, verifies against the snapshot at its tick, and
// continues to completion with a Result byte-identical to an uninterrupted
// run's.
func ResumeTeamScratch(cfg Config, snap *checkpoint.Snapshot, sc *Scratch) (*Team, error) {
	if snap == nil {
		return nil, &checkpoint.FormatError{Reason: "nil snapshot"}
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if max := maxSampleTicks(cfg); snap.TickIndex > max {
		return nil, &checkpoint.FormatError{
			Reason: fmt.Sprintf("snapshot tick %d beyond the run's %d sampling ticks", snap.TickIndex, max),
		}
	}
	team, err := NewTeamScratch(cfg, sc)
	if err != nil {
		return nil, err
	}
	team.verify = snap
	return team, nil
}

// ResumeTeam is ResumeTeamScratch without a scratch.
func ResumeTeam(cfg Config, snap *checkpoint.Snapshot) (*Team, error) {
	return ResumeTeamScratch(cfg, snap, nil)
}

// ResumeFrom continues the run captured in snap to completion under ctx:
// the embedded config is decoded, the run is replayed deterministically
// from tick zero, the replayed state is verified against the snapshot's
// digests at its capture tick (mismatch: *checkpoint.DivergenceError), and
// the completed Result — byte-identical to an uninterrupted run of the
// same config — is returned.
func ResumeFrom(ctx context.Context, snap *checkpoint.Snapshot) (*Result, error) {
	cfg, err := ConfigFromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	team, err := ResumeTeam(cfg, snap)
	if err != nil {
		return nil, err
	}
	return team.RunContext(ctx)
}
