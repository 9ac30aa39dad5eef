package eventlog

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"cocoa/internal/cocoa"
)

// observedRun executes a small deployment with an event log attached.
func observedRun(t *testing.T) ([]cocoa.Event, *cocoa.Result) {
	t.Helper()
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 8
	cfg.NumEquipped = 4
	cfg.BeaconPeriodS = 30
	cfg.DurationS = 120
	cfg.GridCellM = 8
	cfg.Calibration.Samples = 40000

	var buf bytes.Buffer
	w := NewWriter(&buf)
	cfg.Observer = w.Observer()
	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != w.Count() {
		t.Fatalf("read %d events, wrote %d", len(events), w.Count())
	}
	return events, res
}

func TestEventStreamStructure(t *testing.T) {
	events, res := observedRun(t)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	stats := Stats(events)

	// Four windows in 120 s at T=30.
	if got := stats[cocoa.EventWindowStart]; got != 4 {
		t.Errorf("window-start count = %d, want 4", got)
	}
	if got := stats[cocoa.EventWindowEnd]; got != 4 {
		t.Errorf("window-end count = %d, want 4", got)
	}
	// Beacons: at most 4 equipped x 3 beacons x 4 windows.
	if got := stats[cocoa.EventBeaconSent]; got == 0 || got > 48 {
		t.Errorf("beacon-sent count = %d, want in (0, 48]", got)
	}
	// Every fix event must agree with the result's counter.
	if got := stats[cocoa.EventFix]; got != res.Fixes {
		t.Errorf("fix events = %d, result says %d", got, res.Fixes)
	}
	if got := stats[cocoa.EventFixMissed]; got != res.MissedWindows {
		t.Errorf("fix-missed events = %d, result says %d", got, res.MissedWindows)
	}
	if stats[cocoa.EventSleep] == 0 || stats[cocoa.EventWake] == 0 {
		t.Error("no sleep/wake events under coordination")
	}
	if got := stats[cocoa.EventSyncRecv]; got != res.SyncsReceived {
		t.Errorf("sync events = %d, result says %d", got, res.SyncsReceived)
	}
}

func TestEventsTimeOrdered(t *testing.T) {
	events, _ := observedRun(t)
	times := make([]float64, len(events))
	for i, e := range events {
		times[i] = e.TimeS
	}
	if !sort.Float64sAreSorted(times) {
		t.Error("events out of virtual-time order")
	}
}

func TestFixEventsCarryMeasurements(t *testing.T) {
	events, _ := observedRun(t)
	found := false
	for _, e := range events {
		if e.Kind != cocoa.EventFix {
			continue
		}
		found = true
		if e.Beacons < 3 {
			t.Errorf("fix with %d beacons violates the >=3 rule", e.Beacons)
		}
		if e.ErrM < 0 || e.ErrM > 300 {
			t.Errorf("implausible fix error %v", e.ErrM)
		}
		if e.Robot < 4 || e.Robot > 7 {
			t.Errorf("fix from equipped robot %d", e.Robot)
		}
	}
	if !found {
		t.Fatal("no fix events")
	}
}

// A non-encodable event (NaN is not valid JSON) must poison the writer:
// later events are dropped, Count stays at the successes, and the error
// that Observer() swallowed surfaces from Flush and Close alike.
func TestEncodeErrorStickyAndCounted(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	obs := w.Observer()

	obs(cocoa.Event{TimeS: 1, Kind: cocoa.EventFix, Robot: 3, ErrM: 2.5})
	obs(cocoa.Event{TimeS: 2, Kind: cocoa.EventFix, ErrM: math.NaN()}) // unencodable
	obs(cocoa.Event{TimeS: 3, Kind: cocoa.EventFix, Robot: 4})         // after poison

	if w.Count() != 1 {
		t.Errorf("Count = %d, want 1 (only the pre-error event)", w.Count())
	}
	ferr := w.Flush()
	if ferr == nil {
		t.Fatal("Flush returned nil after a failed encode")
	}
	if cerr := w.Close(); !errors.Is(cerr, ferr) && cerr.Error() != ferr.Error() {
		t.Errorf("Close error %v differs from Flush error %v", cerr, ferr)
	}
	// The surviving stream holds exactly the successfully encoded prefix.
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].TimeS != 1 {
		t.Errorf("stream = %+v, want only the first event", events)
	}
}

// failWriter errors on every write, standing in for a full disk.
type failWriter struct{ writes int }

var errDiskFull = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	return 0, errDiskFull
}

// A failing sink surfaces from Flush and stays sticky on repeat calls.
func TestFlushErrorSticky(t *testing.T) {
	fw := &failWriter{}
	w := NewWriter(fw)
	w.Observer()(cocoa.Event{TimeS: 1, Kind: cocoa.EventWake})
	if w.Count() != 1 {
		t.Errorf("Count = %d, want 1 (buffered encode succeeded)", w.Count())
	}
	if err := w.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush error = %v, want errDiskFull", err)
	}
	if err := w.Close(); !errors.Is(err, errDiskFull) {
		t.Errorf("Close after failed Flush = %v, want sticky errDiskFull", err)
	}
	if fw.writes != 1 {
		t.Errorf("sink written to %d times after the first failure", fw.writes)
	}
}

func TestCloseFlushesCleanStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Observer()(cocoa.Event{TimeS: 1, Kind: cocoa.EventSleep, Robot: 2})
	if buf.Len() != 0 {
		t.Error("event bypassed the buffer before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Robot != 2 {
		t.Errorf("events = %+v", events)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"timeS\": 1}\nnot json\n")); err == nil {
		t.Error("accepted malformed JSONL")
	}
}

func TestEmptyStream(t *testing.T) {
	events, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("got %d events from empty stream", len(events))
	}
	if len(Stats(nil)) != 0 {
		t.Error("Stats(nil) not empty")
	}
}
