package faults

import (
	"math"
	"testing"

	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
)

func TestBurstyMatchesTargetLossRate(t *testing.T) {
	for _, rate := range []float64{0.1, 0.25, 0.5} {
		cfg := Bursty(rate, 4)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Bursty(%v) invalid: %v", rate, err)
		}
		if got := cfg.SteadyStateLoss(); math.Abs(got-rate) > 1e-12 {
			t.Errorf("Bursty(%v).SteadyStateLoss() = %v", rate, got)
		}
		ge := NewGilbertElliott(cfg, sim.NewRNG(7).Stream("ge"))
		const n = 200000
		for i := 0; i < n; i++ {
			ge.Drop()
		}
		if got := ge.ObservedLoss(); math.Abs(got-rate) > 0.02 {
			t.Errorf("empirical loss %v, want ~%v", got, rate)
		}
		if occ := ge.ObservedBadOccupancy(); occ < 0 || occ > 1 {
			t.Errorf("occupancy %v out of [0,1]", occ)
		}
	}
}

func TestBurstyZeroRateDisabled(t *testing.T) {
	cfg := Bursty(0, 4)
	if cfg.Enabled() {
		t.Error("Bursty(0) should be disabled")
	}
	if (Config{GE: cfg}).Enabled() {
		t.Error("Config with zero-rate GE should be disabled")
	}
}

func TestGilbertElliottSeedDeterministic(t *testing.T) {
	cfg := Bursty(0.3, 4)
	run := func(seed int64) []bool {
		ge := NewGilbertElliott(cfg, sim.NewRNG(seed).Stream("ge"))
		out := make([]bool, 500)
		for i := range out {
			out[i] = ge.Drop()
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical drop sequences")
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// With LossBad = 1 and LossGood = 0, every drop run is one bad burst;
	// the mean burst length must track 1/PBadToGood.
	cfg := Bursty(0.3, 6)
	ge := NewGilbertElliott(cfg, sim.NewRNG(11).Stream("ge"))
	bursts, cur := []int{}, 0
	for i := 0; i < 100000; i++ {
		if ge.Drop() {
			cur++
		} else if cur > 0 {
			bursts = append(bursts, cur)
			cur = 0
		}
	}
	if len(bursts) == 0 {
		t.Fatal("no bursts observed")
	}
	var sum int
	for _, b := range bursts {
		sum += b
	}
	mean := float64(sum) / float64(len(bursts))
	if mean < 4.5 || mean > 7.5 {
		t.Errorf("mean burst length %v, want ~6", mean)
	}
}

func TestLinkDropsAndSpikes(t *testing.T) {
	const beaconKind = 1
	cfg := Config{
		GE:            Bursty(0.5, 4),
		OutlierProb:   1,
		OutlierMeanDB: 10,
	}
	root := sim.NewRNG(3)
	l := NewLink(cfg, root.Stream("loss"), root.Stream("outlier"), beaconKind)
	delivered, spiked := 0, 0
	for i := 0; i < 2000; i++ {
		rssi, drop := l.Incoming(beaconKind, -70)
		if drop {
			continue
		}
		delivered++
		if rssi != -70 {
			spiked++
		}
	}
	if l.Drops() == 0 || delivered == 0 {
		t.Fatalf("drops=%d delivered=%d, want both positive", l.Drops(), delivered)
	}
	// OutlierProb 1: every surviving beacon is spiked.
	if spiked != delivered || l.Outliers() != delivered {
		t.Errorf("spiked %d of %d delivered (counter %d)", spiked, delivered, l.Outliers())
	}
	// Non-beacon kinds are never spiked, still subject to loss.
	rssi, drop := l.Incoming(beaconKind+1, -70)
	for drop {
		rssi, drop = l.Incoming(beaconKind+1, -70)
	}
	if rssi != -70 {
		t.Errorf("non-beacon frame RSSI perturbed to %v", rssi)
	}
	reg := telemetry.NewRegistry()
	l.Publish(reg)
	if d, o := reg.Counter("faults.drops.loss").Value(), reg.Counter("faults.outliers").Value(); d != int64(l.Drops()) || o != int64(l.Outliers()) {
		t.Errorf("published drops=%d outliers=%d, link counts %d and %d", d, o, l.Drops(), l.Outliers())
	}
}

func TestLinkLossOnlyNoOutlierDraws(t *testing.T) {
	cfg := Config{GE: Bursty(0.2, 4)}
	root := sim.NewRNG(5)
	l := NewLink(cfg, root.Stream("loss"), root.Stream("outlier"), 0)
	for i := 0; i < 100; i++ {
		if rssi, _ := l.Incoming(1, -60); rssi != -60 {
			t.Fatalf("RSSI perturbed with outliers disabled: %v", rssi)
		}
	}
	if l.Outliers() != 0 {
		t.Errorf("outlier counter %d with outliers disabled", l.Outliers())
	}
}

func TestCrashSchedule(t *testing.T) {
	cfg := Config{CrashFraction: 0.2, CrashMeanDownS: 120}
	plan := CrashSchedule(cfg, 50, 0, 1800, sim.NewRNG(9).Stream("crash"))
	if len(plan) != 10 {
		t.Fatalf("got %d outages, want 10", len(plan))
	}
	seen := map[int]bool{}
	for _, o := range plan {
		if o.Robot == 0 {
			t.Error("Sync robot scheduled to crash")
		}
		if o.Robot < 0 || o.Robot >= 50 {
			t.Errorf("robot %d out of range", o.Robot)
		}
		if seen[o.Robot] {
			t.Errorf("robot %d crashes twice", o.Robot)
		}
		seen[o.Robot] = true
		if o.StartS < 0.1*1800 || o.StartS > 0.9*1800 {
			t.Errorf("crash at %v outside the middle 80%%", o.StartS)
		}
		if o.EndS <= o.StartS {
			t.Errorf("outage [%v, %v) empty", o.StartS, o.EndS)
		}
	}

	// Deterministic: same stream, same plan.
	again := CrashSchedule(cfg, 50, 0, 1800, sim.NewRNG(9).Stream("crash"))
	for i := range plan {
		if plan[i] != again[i] {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, plan[i], again[i])
		}
	}
}

func TestCrashSchedulePermanentAndEmpty(t *testing.T) {
	perm := CrashSchedule(Config{CrashFraction: 0.5}, 10, 0, 600, sim.NewRNG(1).Stream("crash"))
	if len(perm) != 5 {
		t.Fatalf("got %d outages, want 5", len(perm))
	}
	for _, o := range perm {
		if !math.IsInf(o.EndS, 1) {
			t.Errorf("zero CrashMeanDownS should be permanent, got end %v", o.EndS)
		}
	}
	if got := CrashSchedule(Config{}, 10, 0, 600, sim.NewRNG(1).Stream("crash")); got != nil {
		t.Errorf("zero fraction produced %d outages", len(got))
	}
	if got := CrashSchedule(Config{CrashFraction: 1}, 1, 0, 600, sim.NewRNG(1).Stream("crash")); got != nil {
		t.Errorf("single-robot team produced %d outages", len(got))
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{
		GE:            Bursty(0.25, 4),
		OutlierProb:   0.1,
		CrashFraction: 0.2,
		SkewMaxS:      1.5,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{OutlierProb: -0.1},
		{OutlierProb: 1.5},
		{OutlierMeanDB: -1, OutlierProb: 0.5},
		{CrashFraction: -0.2},
		{CrashFraction: 2},
		{CrashMeanDownS: -5},
		{SkewMaxS: -1},
		{GE: GEConfig{PGoodToBad: 1.2}},
		{GE: GEConfig{LossBad: -0.5}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if (Config{}).LinkEnabled() {
		t.Error("zero config reports link enabled")
	}
	if !(Config{SkewMaxS: 1}).Enabled() {
		t.Error("skew-only config reports disabled")
	}
	if (Config{SkewMaxS: 1}).LinkEnabled() {
		t.Error("skew-only config reports link enabled")
	}
}
