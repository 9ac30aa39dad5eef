package scenario

import (
	"cocoa/internal/cocoa"
	"cocoa/internal/faults"
)

// QuickFamilies returns one representative config per golden figure
// family at the quick scale (seed 1, 300 s, 12 robots) pinned by
// testdata/golden_<name>.json. The map keys are the file-name families.
func QuickFamilies() map[string]cocoa.Config {
	quick := Options{
		Seed:               1,
		DurationS:          300,
		NumRobots:          12,
		CalibrationSamples: 60000,
		GridCellM:          4,
	}
	base := func() cocoa.Config {
		cfg := cocoa.DefaultConfig()
		quick.apply(&cfg)
		return cfg
	}

	odo := base()
	odo.Mode = cocoa.ModeOdometryOnly // figure family 4/5: dead reckoning drift

	rf := base()
	rf.Mode = cocoa.ModeRFOnly // figure family 6/7/8: RF fixes alone

	combined := base() // figure family 6/7/8/10: full CoCoA

	energy := base() // figure family 9: coordination energy at T=50
	energy.BeaconPeriodS = 50

	flt := base() // rob-faults family: lossy bursty channel + crashes
	flt.Faults.GE = faults.Bursty(0.2, faults.DefaultBurstFrames)
	flt.Faults.CrashFraction = 0.2
	flt.Faults.CrashMeanDownS = 2 * float64(flt.BeaconPeriodS)

	return map[string]cocoa.Config{
		"odometry": odo,
		"rf-only":  rf,
		"cocoa":    combined,
		"energy":   energy,
		"faults":   flt,
	}
}
