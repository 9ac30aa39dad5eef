package cocoa

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cocoa/internal/faults"
	"cocoa/internal/telemetry"
)

// runTelemetry builds cfg on sl (nil: a new slot), runs it, and returns the
// Result's JSON bytes, the Result, and the run's own telemetry. The run
// parks sl in a pool of its own, so no other test can borrow it while the
// caller still builds on it.
func runTelemetry(t *testing.T, cfg Config, sl *slot) ([]byte, *Result, telemetry.Snapshot) {
	t.Helper()
	if sl == nil {
		sl = newSlot()
	}
	team, err := newTeam(cfg, sl, reference{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := team.run(context.Background(), &slotPool{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b, res, team.Telemetry()
}

// counterMap flattens a snapshot's counters by name.
func counterMap(s telemetry.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for _, c := range s.Counters {
		out[c.Name] = c.Value
	}
	return out
}

// faultyConfig is testConfig with every fault source on, so the fault,
// crash and recovery series move too.
func faultyConfig() Config {
	cfg := testConfig()
	cfg.Faults.GE = faults.Bursty(0.2, faults.DefaultBurstFrames)
	cfg.Faults.OutlierProb = 0.1
	cfg.Faults.CrashFraction = 0.3
	cfg.Faults.CrashMeanDownS = 60
	return cfg
}

// Counting never steers and never depends on scheduling: a run always
// counts into its own fields (there is no recording switch on the run
// path), the Result bytes and the run's counts agree at every flush worker
// count, the CPU budget's included. The update workers bump their grids'
// counters concurrently, which make check runs under -race.
func TestTelemetryWorkerInvariant(t *testing.T) {
	t.Parallel()
	run := func(workers int) ([]byte, telemetry.Snapshot) {
		ctx := WithFlushWorkers(context.Background(), workers)
		team, err := NewTeamContext(ctx, faultyConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := team.run(ctx, &slotPool{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b, team.Telemetry()
	}
	baseRes, baseTel := run(1)
	for _, workers := range []int{2, 3, 8, 0} {
		res, tel := run(workers)
		if string(res) != string(baseRes) {
			t.Errorf("%d flush workers: Result differs from the serial run", workers)
		}
		if !reflect.DeepEqual(tel, baseTel) {
			t.Errorf("%d flush workers: telemetry differs from the serial run\nserial: %+v\ngot:    %+v", workers, baseTel, tel)
		}
	}
}

// A plain CoCoA run must actually populate its counters across sim, mac,
// network and cocoa.
func TestTelemetryCountersPopulated(t *testing.T) {
	t.Parallel()
	_, _, tel := runTelemetry(t, testConfig(), nil)
	counters := counterMap(tel)
	for _, name := range []string{
		"sim.events_dispatched",
		"mac.sent",
		"mac.delivered",
		"network.delivered",
		"cocoa.beacons_sent",
		"cocoa.beacons_applied",
		"cocoa.fixes",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s = 0 after a run, want > 0", name)
		}
	}
}

// Every event is counted once, so the telemetry series that mirror a
// Result field are that field, and the derived series agree with what
// they derive from.
func TestTelemetryMirrorsResult(t *testing.T) {
	t.Parallel()
	_, res, tel := runTelemetry(t, faultyConfig(), nil)
	c := counterMap(tel)
	for name, want := range map[string]int{
		"mac.sent":              res.MAC.Sent,
		"mac.delivered":         res.MAC.Delivered,
		"mac.collided":          res.MAC.Collided,
		"mac.below_sense":       res.MAC.BelowSense,
		"mac.missed_asleep":     res.MAC.MissedAsleep,
		"mac.dropped_busy":      res.MAC.DroppedBusy,
		"mac.backoffs":          res.MAC.BackoffEvents,
		"cocoa.fixes":           res.Fixes,
		"cocoa.fix_misses":      res.MissedWindows,
		"cocoa.beacons_queued":  res.BeaconsApplied,
		"cocoa.beacons_applied": res.BeaconsApplied,
		"cocoa.syncs_received":  res.SyncsReceived,
		"cocoa.crashes":         res.Crashes,
		"faults.drops.loss":     res.FaultDrops,
		"faults.outliers":       res.RSSIOutliers,
		"network.fault_drops":   res.FaultDrops,
	} {
		if c[name] != int64(want) {
			t.Errorf("%s = %d, Result says %d", name, c[name], want)
		}
	}
	if res.Crashes == 0 || res.FaultDrops == 0 || res.RSSIOutliers == 0 || c["cocoa.recoveries"] == 0 {
		t.Errorf("degenerate fault run: crashes %d, drops %d, outliers %d, recoveries %d",
			res.Crashes, res.FaultDrops, res.RSSIOutliers, c["cocoa.recoveries"])
	}
	var byKind int64
	for name, v := range c {
		if strings.HasPrefix(name, "network.fault_drops.") {
			byKind += v
		}
	}
	if byKind != c["network.fault_drops"] {
		t.Errorf("fault drops by kind sum to %d, total %d", byKind, c["network.fault_drops"])
	}
	hist := map[string]int64{}
	for _, h := range tel.Histograms {
		hist[h.Name] = h.Count
	}
	if hist["cocoa.flush_busy_robots"] != c["cocoa.flushes"] || c["cocoa.flushes"] == 0 {
		t.Errorf("flush_busy_robots count %d, flushes %d", hist["cocoa.flush_busy_robots"], c["cocoa.flushes"])
	}
	if hist["sim.heap_depth"] != c["sim.events_scheduled"] {
		t.Errorf("heap_depth count %d, events scheduled %d", hist["sim.heap_depth"], c["sim.events_scheduled"])
	}
}

// The grids' counters span the whole run even though Grid.Reset restarts
// the belief every window: every applied beacon is one bayes.apply.* —
// also on a warm run slot, whose recycled grids are zeroed when the team
// adopts them rather than carrying the previous run's counts.
func TestTelemetryGridCountersSurviveRun(t *testing.T) {
	t.Parallel()
	sc := newSlot()
	for run := 0; run < 2; run++ {
		_, _, tel := runTelemetry(t, testConfig(), sc)
		c := counterMap(tel)
		applies := c["bayes.apply.nearest"] + c["bayes.apply.lerp"] + c["bayes.apply.generic"]
		if applies == 0 || applies != c["cocoa.beacons_applied"] {
			t.Errorf("run %d: bayes.apply.* sum to %d, cocoa.beacons_applied %d", run, applies, c["cocoa.beacons_applied"])
		}
		if renorms := c["bayes.renorm_taken"] + c["bayes.renorm_deferred"]; renorms != applies {
			t.Errorf("run %d: %d renorm outcomes for %d applies", run, renorms, applies)
		}
	}
}

// slotDependent names the counters that legitimately differ between a
// run on a new slot and one on a recycled run slot: the arena chunks a warm
// simulator no longer allocates, and the reuse count itself.
func slotDependent(name string) bool {
	return name == "sim.arena_chunks" || name == "cocoa.scratch_reuse"
}

// A run on a recycled slot publishes the same counters and histograms as a
// run of the same config on a new slot, except the slot-dependent two,
// whatever teams the slot served before.
func TestTelemetryRecycledSlot(t *testing.T) {
	t.Parallel()
	strip := func(s telemetry.Snapshot) telemetry.Snapshot {
		var kept []telemetry.CounterValue
		for _, c := range s.Counters {
			if !slotDependent(c.Name) {
				kept = append(kept, c)
			}
		}
		s.Counters = kept
		return s
	}
	cfg := faultyConfig()
	_, _, fresh := runTelemetry(t, cfg, nil)
	if c := counterMap(fresh); c["cocoa.scratch_reuse"] != 0 {
		t.Errorf("fresh run cocoa.scratch_reuse = %d, want 0", c["cocoa.scratch_reuse"])
	}
	sc := newSlot()
	for name, other := range scratchWarmups() {
		runTelemetry(t, other, sc) // warm the slot with a different run
		_, _, warm := runTelemetry(t, cfg, sc)
		if c := counterMap(warm); c["cocoa.scratch_reuse"] != 1 {
			t.Errorf("warm run cocoa.scratch_reuse = %d, want 1", c["cocoa.scratch_reuse"])
		}
		if !reflect.DeepEqual(strip(fresh), strip(warm)) {
			t.Errorf("telemetry on a slot warm from %s differs from a fresh run\nfresh: %+v\nwarm:  %+v", name, fresh, warm)
		}
	}
}
