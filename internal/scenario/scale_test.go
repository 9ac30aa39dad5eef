package scenario

import (
	"context"
	"reflect"
	"testing"
)

func TestSwarmConfigShape(t *testing.T) {
	for _, n := range ScaleSizes() {
		cfg := SwarmConfig(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("SwarmConfig(%d) invalid: %v", n, err)
		}
		if cfg.NumRobots != n || cfg.NumEquipped != max(1, n/2) {
			t.Errorf("SwarmConfig(%d): robots %d equipped %d", n, cfg.NumRobots, cfg.NumEquipped)
		}
		// Constant density: area per robot matches the paper's 50-robot
		// 200x200 baseline at every size.
		per := cfg.Area.Width() * cfg.Area.Height() / float64(n)
		if per < 799 || per > 801 {
			t.Errorf("SwarmConfig(%d): %.1f m^2 per robot, want 800", n, per)
		}
	}
}

// RunScale treats Options.NumRobots as a cap on the sweep, not a rescale:
// sizes above it are dropped, and a cap below the smallest size runs that
// one size.
func TestRunScaleCapsSizes(t *testing.T) {
	for _, tc := range []struct {
		cap  int
		want []int
	}{{30, []int{25}}, {10, []int{10}}} {
		rows, err := RunScale(context.Background(), Options{
			Seed: 1, DurationS: 60, NumRobots: tc.cap, CalibrationSamples: 40000,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, r := range rows {
			got = append(got, r.Robots)
			if r.MACSent == 0 || r.AreaSideM <= 0 {
				t.Errorf("cap %d: degenerate row %+v", tc.cap, r)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("cap %d: sizes %v, want %v", tc.cap, got, tc.want)
		}
	}
}
