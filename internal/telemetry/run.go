package telemetry

import (
	"fmt"
	"slices"
)

// maxTallyBuckets bounds a Tally's buckets (bounds plus overflow), so a
// Tally lives inside the struct owning the run, not in its own allocation.
const maxTallyBuckets = 16

// Tally is a fixed-bucket histogram of integer observations owned by one
// run: plain fields, written only by the run's goroutine. Its bounds follow
// Histogram's convention; Registry.AddTally publishes it.
type Tally struct {
	bounds  []float64
	buckets [maxTallyBuckets]int
	sum     int
}

// NewTally returns an empty tally over the given ascending bounds. The
// slice is shared, never written; callers pass a package-level one.
func NewTally(bounds []float64) Tally {
	for i := range bounds {
		if i >= maxTallyBuckets-1 || i > 0 && !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: tally bounds %v: want at most %d, strictly ascending", bounds, maxTallyBuckets-1))
		}
	}
	return Tally{bounds: bounds}
}

// Observe records one value.
func (t *Tally) Observe(v int) {
	i := 0
	for i < len(t.bounds) && float64(v) > t.bounds[i] {
		i++
	}
	t.buckets[i]++
	t.sum += v
}

// Count returns the number of observations.
func (t *Tally) Count() int {
	n := 0
	for _, b := range t.buckets {
		n += b
	}
	return n
}

// Add adds a finished run's count n to the named counter.
func (r *Registry) Add(name string, n int) { r.Counter(name).Add(int64(n)) }

// AddTally adds a finished run's tally into the named histogram (registered
// with the tally's bounds on first use; left alone if its bounds differ).
func (r *Registry) AddTally(name string, t *Tally) {
	h := r.Histogram(name, t.bounds)
	if !slices.Equal(h.bounds, t.bounds) {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Add(int64(t.buckets[i]))
	}
	h.count.Add(int64(t.Count()))
	h.sum.Add(float64(t.sum))
}
