// Package obs is the operational observability layer of the CoCoA stack,
// built on top of internal/telemetry's instrument registry. Where
// telemetry answers "what did the run do" (counters, distributions,
// spans), obs answers "what is the process doing right now and how do I
// look at it from the outside":
//
//   - Prometheus text exposition: WriteMetrics renders a telemetry
//     Snapshot — every counter, gauge, histogram (_bucket/_sum/_count
//     with +Inf), and span — plus Go runtime metrics and caller-supplied
//     Samples in the text format any Prometheus scraper ingests; Handler
//     wraps it as GET /metrics. ParseExposition / Lint form the in-repo
//     parser the tests validate that output with, so the format can
//     never drift unchecked.
//   - Live progress: Progress is a lock-free gauge the simulation loop
//     publishes its tick position (and a sweep its run index) through —
//     one atomic store per tick, safe to read from any goroutine, with an
//     ETA derived at read time.
//   - Trace file format: TraceEvent and WriteTrace are Chrome
//     trace-event JSON, loadable in Perfetto or chrome://tracing; a run's
//     span trace is rendered into it from the run's event stream by
//     internal/eventlog. ReadTrace is the strict decoder that round-trips
//     the format and verifies begin/end balance.
//   - Structured logging: LogOptions/AddLogFlags give every CLI the same
//     -log-format/-log-level pair over log/slog.
//
// The layer inherits telemetry's prime directive: it records, it never
// steers. Nothing in the simulation reads a Progress value to make a
// decision, so results are byte-identical with every obs feature on or
// off, at any parallelism — and the disabled path of each record site
// stays at one atomic (or nil-pointer) load.
package obs
