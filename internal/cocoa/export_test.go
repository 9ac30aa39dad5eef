package cocoa

import "context"

// WithScanIndex returns a context under which RunContext and RunScratch
// build teams whose MAC finds receivers by the O(n) reference scan instead
// of the spatial grid index.
func WithScanIndex(ctx context.Context) context.Context {
	ref := referenceFrom(ctx)
	ref.scan = true
	return context.WithValue(ctx, referenceKey{}, ref)
}

// NewTeamContext is NewTeam under the reference selection ctx carries (see
// WithScanIndex and WithEagerStats), for tests that read the team back
// after the run.
func NewTeamContext(ctx context.Context, cfg Config) (*Team, error) {
	return newTeam(cfg, nil, referenceFrom(ctx))
}

// WithEagerStats returns a context under which RunContext and RunScratch
// build grid localizers that read their statistics by full-grid scans
// instead of the incremental accumulators.
func WithEagerStats(ctx context.Context) context.Context {
	ref := referenceFrom(ctx)
	ref.eager = true
	return context.WithValue(ctx, referenceKey{}, ref)
}
