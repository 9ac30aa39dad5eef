package cocoa

import "context"

// WithScanIndex returns a context under which RunContext builds teams whose
// MAC finds receivers by the O(n) reference scan instead of the spatial
// grid index.
func WithScanIndex(ctx context.Context) context.Context {
	ref := referenceFrom(ctx)
	ref.scan = true
	return context.WithValue(ctx, referenceKey{}, ref)
}

// WithFlushWorkers returns a context under which RunContext builds teams
// whose beacon flushes apply on exactly n goroutines (n-1 helpers and the
// run's own), bypassing the CPU budget; 0 restores the budget.
func WithFlushWorkers(ctx context.Context, n int) context.Context {
	ref := referenceFrom(ctx)
	ref.flushWorkers = n
	return context.WithValue(ctx, referenceKey{}, ref)
}

// NewTeamContext is NewTeam on a new slot, the cold reference a recycled
// slot is compared with, under the reference selection ctx carries (see
// WithScanIndex, WithEagerStats and WithFlushWorkers).
func NewTeamContext(ctx context.Context, cfg Config) (*Team, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newTeam(cfg, newSlot(), referenceFrom(ctx))
}

// WithEagerStats returns a context under which RunContext builds grid
// localizers that read their statistics by full-grid scans instead of the
// incremental accumulators.
func WithEagerStats(ctx context.Context) context.Context {
	ref := referenceFrom(ctx)
	ref.eager = true
	return context.WithValue(ctx, referenceKey{}, ref)
}

// SwarmShape is the internal tests' copy of scenario.SwarmConfig.
var SwarmShape = swarmConfig
