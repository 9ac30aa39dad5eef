package cocoa_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/scenario"
)

// The Bayesian grid's incremental statistics accumulators (DESIGN.md §13)
// carry an equivalence contract with the retained eager full-scan reference:
// the two read paths agree within 1e-9 on every experiment outcome. Unlike
// the spatial index's byte-identity (the index changes nothing about the
// arithmetic), the accumulators legitimately round differently than a fresh
// scan, so the contract here is numeric closeness, not byte equality. This
// suite enforces it across the whole registry at UpdateWorkers 1 and 8;
// make check runs it under -race. The eager path is reachable only through
// the test-only cocoa.WithEagerStats context.

// statsEquivTol is the accumulator-vs-scan agreement bound from the
// acceptance criteria, applied relative to the value magnitude.
const statsEquivTol = 1e-9

// numericallyClose walks two decoded JSON values in lockstep: numbers must
// agree within statsEquivTol (relative above magnitude 1), everything else
// must match exactly.
func numericallyClose(path string, a, b any) error {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: shape mismatch", path)
		}
		for k, x := range av {
			y, ok := bv[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing in eager result", path, k)
			}
			if err := numericallyClose(path+"."+k, x, y); err != nil {
				return err
			}
		}
		return nil
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: length mismatch", path)
		}
		for i := range av {
			if err := numericallyClose(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); err != nil {
				return err
			}
		}
		return nil
	case float64:
		bvf, ok := b.(float64)
		if !ok {
			return fmt.Errorf("%s: type mismatch", path)
		}
		scale := math.Max(1, math.Max(math.Abs(av), math.Abs(bvf)))
		if d := math.Abs(av - bvf); !(d <= statsEquivTol*scale) {
			return fmt.Errorf("%s: %v vs %v differ by %v (tol %v)", path, av, bvf, d, statsEquivTol*scale)
		}
		return nil
	default:
		if a != b {
			return fmt.Errorf("%s: %v != %v", path, a, b)
		}
		return nil
	}
}

// TestGridStatsEquivalenceRegistry runs every registered experiment with
// the incremental accumulators and with the eager full-scan reference, at
// UpdateWorkers 1 and 8, and requires every numeric outcome to agree within
// 1e-9.
func TestGridStatsEquivalenceRegistry(t *testing.T) {
	for _, d := range scenario.Experiments() {
		t.Run(d.Name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				decode := func(ctx context.Context) any {
					res, err := d.Run(ctx, equivOpts(workers))
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					var v any
					if err := json.Unmarshal(b, &v); err != nil {
						t.Fatal(err)
					}
					return v
				}
				inc := decode(context.Background())
				eager := decode(cocoa.WithEagerStats(context.Background()))
				if err := numericallyClose("result", inc, eager); err != nil {
					t.Errorf("workers=%d: incremental and eager results diverge: %v", workers, err)
				}
			}
		})
	}
}
