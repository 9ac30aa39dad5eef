package scenario

import (
	"context"
	"fmt"
	"io"
)

// The experiment registry is the single place a new experiment plugs into:
// one entry, built by experiment, makes it reachable from cmd/cocoaexp
// (dispatch, -fig selection and usage, section ordering and rendering),
// from cocoad and from library users iterating Experiments(). An entry
// pairs a runner with the renderer of the type that runner returns, so an
// entry without a renderer, or with one of the wrong type, does not compile.

// Descriptor describes one registered experiment.
type Descriptor struct {
	// Name uniquely identifies the experiment (e.g. "fig9", "ablation-k").
	Name string
	// Flag is the CLI selector group: several experiments can share one
	// (all four ablations answer to -fig ablations).
	Flag string
	// Title is the human-readable section header.
	Title string
	// Run executes the experiment. The concrete result type is the one the
	// underlying Run* function returns (e.g. []Fig9Row for "fig9").
	// Canceling ctx aborts queued and in-flight simulation runs; a nil ctx
	// means context.Background().
	Run func(ctx context.Context, opts Options) (any, error)
	// Render writes the section body for a value Run returned. It fails
	// only for a value of any other type.
	Render func(w io.Writer, v any) error
}

// experiment builds a Descriptor from a typed runner and the renderer of
// its result type.
func experiment[T any](name, flag, title string, run func(context.Context, Options) (T, error), render func(io.Writer, T)) Descriptor {
	return Descriptor{
		Name: name, Flag: flag, Title: title,
		Run: func(ctx context.Context, o Options) (any, error) { return run(ctx, o) },
		Render: func(w io.Writer, v any) error {
			t, ok := v.(T)
			if !ok {
				return fmt.Errorf("%s: cannot render a %T", name, v)
			}
			render(w, t)
			return nil
		},
	}
}

// replicationSeeds is the default cross-seed replication width, matching
// the repetition count credible multi-run averages need at reasonable cost.
const replicationSeeds = 5

// Experiments returns every registered experiment in presentation order
// (the order cocoaexp prints the full suite in). Each call builds a new
// slice; callers may reorder or filter it freely.
func Experiments() []Descriptor {
	return []Descriptor{
		experiment("fig1", "1", "Figure 1 — RSSI -> distance PDFs from calibration",
			RunFig1, renderFig1),
		experiment("fig4", "4", "Figure 4 — localization error over time, odometry only",
			RunFig4, renderFig4),
		experiment("fig5", "5", "Figure 5 — an example of odometry error (one robot)",
			RunFig5, renderFig5),
		experiment("fig6", "6", "Figure 6 — RF localization only, beacon-period sweep",
			RunFig6, renderFig6),
		experiment("fig7", "7", "Figure 7 — CoCoA vs odometry-only vs RF-only (T = 100 s)",
			RunFig7, renderFig7),
		experiment("fig8", "8", "Figure 8 — error CDF at three time instances (T = 100 s)",
			RunFig8, renderFig8),
		experiment("fig9", "9", "Figure 9 — impact of beacon period T on error and energy",
			RunFig9, renderFig9),
		experiment("fig10", "10", "Figure 10 — impact of the number of localization devices",
			RunFig10, renderFig10),
		experiment("ext-secondary", "ext", "Extension — secondary beacons from localized unequipped robots",
			RunExtensionSecondary, renderExtensionSecondary),
		experiment("ext-power", "power", "Extension — transmit power control (future work, Sec. 6)",
			RunExtensionPowerControl, renderPowerControl),
		experiment("ext-skew", "skew", "Extension — clock drift vs SYNC (why coordination needs MRMM)",
			RunExtensionClockSkew, renderClockSkew),
		experiment("ext-terrain", "terrain", "Extension — uneven terrain (paper introduction)",
			RunExtensionTerrain, renderTerrain),
		experiment("ext-reports", "reports", "Extension — status reports to the controller (geographic unicast)",
			RunExtensionReporting, renderReports),
		experiment("rob-failures", "failures", "Robustness — equipped-robot failures mid-run",
			RunFailureInjection, renderFailures),
		experiment("rob-replication", "failures", "Robustness — cross-seed replication of the headline metric",
			func(ctx context.Context, o Options) (Replication, error) {
				return RunReplication(ctx, o, replicationSeeds)
			},
			renderReplication),
		experiment("rob-faults", "faults", "Robustness — graceful degradation under injected faults (loss x crashes)",
			RunFaultSweep, renderFaults),
		experiment("scale", "scale", "Scale — swarm sweep at constant density (spatial MAC index)",
			RunScale, renderScale),
		experiment("baseline", "baseline", "Baseline — CoCoA vs Cooperative Positioning (Kurazume et al.)",
			RunBaselineCoopPos, renderBaseline),
		experiment("ablation-pruning", "ablations", "Ablation — MRMM mesh pruning vs plain ODMRP",
			RunAblationPruning, renderAblationPruning),
		experiment("ablation-k", "ablations", "Ablation — beacon redundancy k",
			RunAblationK, renderAblationK),
		experiment("ablation-grid", "ablations", "Ablation — Bayesian grid resolution",
			RunAblationGrid, renderAblationGrid),
		experiment("ablation-localizer", "ablations", "Ablation — localization backend (grid vs Monte Carlo)",
			RunAblationLocalizer, renderAblationLocalizer),
	}
}
