package scenario

import (
	"context"
	"testing"

	"cocoa/internal/obs"
)

func TestAblationLocalizer(t *testing.T) {
	rows, err := RunAblationLocalizer(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0].Backend != "grid" || rows[1].Backend != "particle" || rows[2].Backend != "ekf" {
		t.Fatalf("backends = %+v", rows)
	}
	for _, r := range rows {
		if r.MeanErrorM <= 0 || r.FixRate <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	// Same beacons, same regime: backends within a factor of each other
	// plus slack for the small test scale.
	if rows[1].MeanErrorM > 3*rows[0].MeanErrorM+10 {
		t.Errorf("particle %.1f m wildly above grid %.1f m",
			rows[1].MeanErrorM, rows[0].MeanErrorM)
	}
}

func TestExtensionPowerControl(t *testing.T) {
	rows, err := RunExtensionPowerControl(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	// Higher power means longer range, monotonic by construction.
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanRangeM <= rows[i-1].MeanRangeM {
			t.Errorf("range not increasing with power: %+v", rows)
		}
	}
	// More power lets more beacons reach receivers.
	if rows[3].BeaconsUsed <= rows[0].BeaconsUsed {
		t.Errorf("18 dBm applied %d beacons, 9 dBm %d; want more with more power",
			rows[3].BeaconsUsed, rows[0].BeaconsUsed)
	}
}

func TestExtensionClockSkew(t *testing.T) {
	rows, err := RunExtensionClockSkew(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	byKey := map[[2]interface{}]ClockSkewRow{}
	for _, r := range rows {
		byKey[[2]interface{}{r.DriftSigmaS, r.SyncEnabled}] = r
	}
	// With zero drift, sync on/off must both work.
	if byKey[[2]interface{}{0.0, false}].FixRate < 0.9 {
		t.Errorf("zero drift without sync broke: %+v", byKey[[2]interface{}{0.0, false}])
	}
	// Under heavy drift, SYNC must outperform the preprogrammed schedule.
	withSync := byKey[[2]interface{}{1.5, true}]
	without := byKey[[2]interface{}{1.5, false}]
	if withSync.FixRate < without.FixRate {
		t.Errorf("SYNC did not help under drift: with=%.2f without=%.2f",
			withSync.FixRate, without.FixRate)
	}
}

func TestBaselineCoopPos(t *testing.T) {
	opts := fastOpts()
	opts.Gauge = &obs.Progress{}
	rows, err := RunBaselineCoopPos(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The experiment reports through the gauge like every sweep: its
	// fan-out position, and the tick position of its CoCoA runs.
	if done, total := opts.Gauge.Run(); done != 3 || total != 3 {
		t.Errorf("gauge Run() = (%d, %d), want (3, 3)", done, total)
	}
	if _, total := opts.Gauge.Ticks(); total == 0 {
		t.Error("gauge never saw a run's tick position")
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	byName := map[string]BaselineRow{}
	for _, r := range rows {
		byName[r.System] = r
		if r.MeanErrorM <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	cp := byName["cooperative-positioning"]
	if cp.MobilityDutyPct != 50 || cp.EquippedRobots != 0 {
		t.Errorf("CP row misdescribed: %+v", cp)
	}
	if byName["cocoa"].EquippedRobots == 0 {
		t.Error("CoCoA row lost its equipped count")
	}
}

func TestFailureInjection(t *testing.T) {
	rows, err := RunFailureInjection(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0].FailedEquipped != 0 {
		t.Fatalf("first row must be the no-failure control: %+v", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FailedEquipped <= rows[i-1].FailedEquipped {
			t.Fatalf("failure sweep not increasing: %+v", rows)
		}
	}
	// Heavy anchor loss must cost accuracy relative to its own pre-failure
	// phase or the control run; and must never crash.
	heavy := rows[2]
	control := rows[0]
	if heavy.MeanAfterM+1 < heavy.MeanBeforeM && heavy.MeanAfterM+1 < control.MeanAfterM {
		t.Errorf("losing %d anchors improved accuracy: %+v", heavy.FailedEquipped, heavy)
	}
}

func TestReplication(t *testing.T) {
	rep, err := RunReplication(context.Background(), fastOpts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeds != 3 {
		t.Errorf("Seeds = %d", rep.Seeds)
	}
	if rep.MeanErrorM <= 0 || rep.StdErrorM < 0 {
		t.Errorf("degenerate replication %+v", rep)
	}
	if rep.MinM > rep.MeanErrorM || rep.MaxM < rep.MeanErrorM {
		t.Errorf("ordering broken: %+v", rep)
	}
	if rep.MinM == rep.MaxM {
		t.Error("different seeds produced identical results")
	}
}

func TestReplicationDefaultSeeds(t *testing.T) {
	opts := fastOpts()
	opts.DurationS = 60
	rep, err := RunReplication(context.Background(), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeds != 5 {
		t.Errorf("default seeds = %d, want 5", rep.Seeds)
	}
}

func TestExtensionReporting(t *testing.T) {
	rows, err := RunExtensionReporting(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.ReportsSent == 0 {
			t.Errorf("T=%v: no reports sent", r.PeriodS)
		}
		if r.DeliveryRate < 0.3 {
			t.Errorf("T=%v: delivery rate %.2f implausibly low", r.PeriodS, r.DeliveryRate)
		}
	}
}

func TestExtensionTerrain(t *testing.T) {
	opts := fastOpts()
	opts.DurationS = 400
	rows, err := RunExtensionTerrain(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	byKey := map[[2]interface{}]TerrainRow{}
	for _, r := range rows {
		byKey[[2]interface{}{r.Mode, r.Amplitude}] = r
	}
	odoSmooth := byKey[[2]interface{}{"odometry-only", 0.0}]
	odoRough := byKey[[2]interface{}{"odometry-only", 3.0}]
	if odoRough.MeanErrorM <= odoSmooth.MeanErrorM {
		t.Errorf("rough terrain did not hurt odometry: smooth %.1f, rough %.1f",
			odoSmooth.MeanErrorM, odoRough.MeanErrorM)
	}
	cocoaRough := byKey[[2]interface{}{"cocoa", 3.0}]
	if cocoaRough.MeanErrorM >= odoRough.MeanErrorM {
		t.Errorf("CoCoA on rough terrain (%.1f) not better than odometry (%.1f)",
			cocoaRough.MeanErrorM, odoRough.MeanErrorM)
	}
}
