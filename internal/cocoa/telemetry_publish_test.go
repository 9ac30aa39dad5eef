package cocoa

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"cocoa/internal/checkpoint"
	"cocoa/internal/telemetry"
)

// The tests in this file enable telemetry.Default, so none of them is
// parallel: Go runs parallel tests only after every sequential test of the
// package has finished, so no other run publishes while these diff the
// registry.

// enableDefault turns run publication on for the rest of the test.
func enableDefault(t *testing.T) {
	t.Helper()
	was := telemetry.Default.Enabled()
	telemetry.Default.SetEnabled(true)
	t.Cleanup(func() { telemetry.Default.SetEnabled(was) })
}

// nonzero renders a snapshot's moved counters and histograms for
// comparison: name -> value, and name -> count/sum/buckets.
func nonzero(s telemetry.Snapshot) map[string]any {
	out := map[string]any{}
	for _, c := range s.Counters {
		if c.Value != 0 {
			out[c.Name] = c.Value
		}
	}
	for _, h := range s.Histograms {
		if h.Count != 0 {
			out[h.Name] = h
		}
	}
	return out
}

// Attribution: two different configs run concurrently with eight grid
// workers each while Default is enabled. Each team's Telemetry equals its
// serial run's (made with Default disabled), the Results are byte-identical
// to the serial ones, and Default moved by exactly the sum of the two.
func TestTelemetryPublishAttribution(t *testing.T) {
	cfgs := []Config{testConfig(), faultyConfig()}
	for i := range cfgs {
		cfgs[i].UpdateWorkers = 8
	}
	serialRes := make([][]byte, len(cfgs))
	serialTel := make([]telemetry.Snapshot, len(cfgs))
	telemetry.Default.SetEnabled(false)
	for i, cfg := range cfgs {
		serialRes[i], _, serialTel[i] = runTelemetry(t, cfg, nil)
	}

	enableDefault(t)
	before := telemetry.Default.Snapshot()
	teams := make([]*Team, len(cfgs))
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if teams[i], errs[i] = NewTeam(cfg); errs[i] == nil {
				results[i], errs[i] = teams[i].Run()
			}
		}()
	}
	wg.Wait()
	delta := telemetry.Diff(before, telemetry.Default.Snapshot())

	tel := make([]telemetry.Snapshot, len(cfgs))
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("config %d: %v", i, errs[i])
		}
		tel[i] = teams[i].Telemetry()
		res, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(res) != string(serialRes[i]) {
			t.Errorf("config %d: Result differs between the serial run and the concurrent published one", i)
		}
		if !reflect.DeepEqual(tel[i], serialTel[i]) {
			t.Errorf("config %d: concurrent run's telemetry differs from its serial run's", i)
		}
	}
	sum := telemetry.NewRegistry()
	for _, team := range teams {
		team.publish(sum)
	}
	if want, got := nonzero(sum.Snapshot()), nonzero(delta); !reflect.DeepEqual(got, want) {
		t.Errorf("Default moved by\n%v\nwant the two runs' sum\n%v", got, want)
	}
}

// A run publishes on every exit — here a checkpoint hook stopping it
// mid-run — exactly once: running a team a second time is an error that
// publishes nothing.
func TestTelemetryPublishedOnEveryExit(t *testing.T) {
	enableDefault(t)
	team, err := NewTeam(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	team.OnCheckpoint(func(s *checkpoint.Snapshot) error {
		if s.TickIndex == 5 {
			return checkpoint.ErrStop
		}
		return nil
	})
	before := telemetry.Default.Snapshot()
	if _, err := team.Run(); !errors.Is(err, checkpoint.ErrStop) {
		t.Fatalf("stopped run: err = %v, want ErrStop", err)
	}
	stopped := telemetry.Diff(before, telemetry.Default.Snapshot())
	if got, want := nonzero(stopped), nonzero(team.Telemetry()); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("stopped run published\n%v\nwant its telemetry\n%v", got, want)
	}

	before = telemetry.Default.Snapshot()
	if _, err := team.RunContext(context.Background()); err == nil {
		t.Fatal("second run of one team succeeded")
	}
	if again := nonzero(telemetry.Diff(before, telemetry.Default.Snapshot())); len(again) != 0 {
		t.Errorf("rejected second run published %v", again)
	}
}
