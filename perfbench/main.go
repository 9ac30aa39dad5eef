// Command perfbench is the repository benchmark. It runs one named
// workload against the cocoa module's public entry points, checks every
// output against a reference, and prints each metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with
// telemetry off. With --trace 1 the process spends half the time on that
// untraced pass and half on a separate traced pass (telemetry on, a CPU
// profile of the process, runtime/metrics, and the benchmark's own spans
// around each call into a layer), and reports the per-layer ledger instead.
//
// Run it through run.sh from the root of a checkout; results, spans and
// profiles go to .bench_build/perfbench/results. --compare reads two sets
// of result files and refuses to compare runs from different core counts.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cocoa/internal/telemetry"
)

// workload is one named benchmark input set.
type workload interface {
	// prepare generates the seed's inputs and reference outputs. It runs
	// once per process, outside every timed region and set-up.
	prepare(ctx context.Context, seed int64) error
	// run performs one pass: measured set-up, then closed-loop operations
	// for the pass's duration inside p.reg.
	run(ctx context.Context, p *pass) (*outcome, error)
}

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"paper-sweep", "swarm-1000", "service"}

func newWorkload(name, tmpDir string) (workload, bool) {
	switch name {
	case "paper-sweep":
		return &paperSweep{}, true
	case "swarm-1000":
		return &swarm1000{}, true
	case "service":
		return &service{tmpDir: tmpDir}, true
	}
	return nil, false
}

// pass is one measured execution of a workload.
type pass struct {
	seconds float64
	spans   *spanLog // nil when untraced
	reg     region
	ref     hostRef
}

func (p *pass) duration() time.Duration {
	return time.Duration(p.seconds * float64(time.Second))
}

// outcome is what a pass observed.
type outcome struct {
	mu        sync.Mutex // guards attempted, failed, problems for concurrent clients
	attempted int
	failed    int
	problems  []string

	setupS   []float64   // one entry per set-up repetition (per op on swarm-1000)
	opMs     []float64   // wall time of each timed operation
	opStart  []time.Time // when each timed operation started
	runs     int         // deployment runs completed by the timed operations
	busyS    float64     // wall seconds runs_per_s divides by
	meanErrM float64
	layer    map[string]float64 // per-layer values only the workload observes
	report   map[string]float64 // workload-specific figures for the report
}

func newOutcome() *outcome {
	return &outcome{layer: map[string]float64{}, report: map[string]float64{}}
}

// fail counts one failed operation; callers hold mu when clients run
// concurrently.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, err.Error())
	}
}

// hostInfo is the provenance every result set records.
type hostInfo struct {
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

// resultSet is the file written per invocation.
type resultSet struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Report    map[string]float64 `json:"report"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	LayerCPU  map[string]int64   `json:"layer_cpu_ns,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		name    = flags.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flags.Int64("seed", 0, "workload seed (>= 0); 0 is the default whose outputs are kept")
		seconds = flags.Float64("seconds", 20, "measured seconds per pass")
		trace   = flags.Int("trace", 0, "1 adds a traced pass and reports the per-layer ledger")
		root    = flags.String("root", ".", "root of the checkout (results go under .bench_build)")
		commit  = flags.String("commit", "unknown", "commit of the code under test")
		compare = flags.String("compare", "", "comma-separated result files of the base set")
		against = flags.String("against", "", "comma-separated result files of the compared set")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *compare != "" || *against != "" {
		if err := compareSets(stdout, strings.Split(*compare, ","), strings.Split(*against, ",")); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	outDir := filepath.Join(*root, ".bench_build", "perfbench")
	w, ok := newWorkload(*name, filepath.Join(outDir, "state"))
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	case *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "perfbench: need --seed >= 0, --seconds > 0 and --trace 0 or 1")
		return 2
	}
	for _, d := range []string{filepath.Join(outDir, "state"), filepath.Join(outDir, "results")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	res, err := execute(w, *name, *seed, *seconds, *trace == 1, outDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.Host = probeHost(*root, *commit)
	fmt.Fprintf(stdout, "host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		res.Host.CPUModel, res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Commit, res.Host.SourceDigest)
	base := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)
	if err := writeJSON(filepath.Join(outDir, "results", base+".json"), res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	metrics := map[string]any{}
	defs, vals := endToEnd, res.EndToEnd
	if res.Trace {
		defs, vals = perLayer, res.PerLayer
	}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs the untraced pass and, when traced, the traced pass, and
// prints the human-readable report.
func execute(w workload, name string, seed int64, seconds float64, traced bool, outDir string, out io.Writer) (*resultSet, error) {
	ctx := context.Background()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", name, seed, seconds, traced)
	if telemetry.Default.Enabled() {
		return nil, errors.New("telemetry is enabled before the untraced pass")
	}
	if err := w.prepare(ctx, seed); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	// A traced invocation splits its measured time between the untraced
	// reference pass (for trace_overhead) and the traced pass.
	passS := seconds
	if traced {
		passS = seconds / 2
	}
	up := &pass{seconds: passS}
	uo, err := w.run(ctx, up)
	if err != nil {
		return nil, err
	}
	if telemetry.Default.Enabled() {
		return nil, errors.New("telemetry was enabled during the untraced pass")
	}
	res := &resultSet{Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		EndToEnd: endToEndValues(uo, up), Report: reportValues(uo, up),
		Attempted: uo.attempted, Failed: uo.failed, Problems: uo.problems}
	printEndToEnd(out, res, uo)

	if !traced {
		return res, nil
	}
	// The enable flag is process-global: the traced pass switches it on
	// only after the untraced pass finished, and must leave it off.
	tp := &pass{seconds: passS, spans: newSpanLog(), reg: region{traced: true}, ref: hostRef{off: true}}
	telemetry.Default.SetEnabled(true)
	to, err := w.run(ctx, tp)
	telemetry.Default.SetEnabled(false)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if telemetry.Default.Enabled() {
		return nil, errors.New("telemetry flag not restored after the traced pass")
	}
	res.PerLayer = ledger(tp, to, uo)
	res.LayerCPU = tp.reg.cpu
	res.Attempted += to.attempted
	res.Failed += to.failed
	res.Problems = append(res.Problems, to.problems...)

	base := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d", name, seed))
	if err := tp.spans.writeFile(base + "-spans.json"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+"-cpu.pprof", tp.reg.prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	printLedger(out, name, res)
	return res, nil
}

// reportValues adds the raw timings, the reference bursts, the tail
// percentile, the error rate and the workload's own figures (run_s,
// rt_p50_ms, jobs_per_s, ...) to the report.
func reportValues(o *outcome, p *pass) map[string]float64 {
	r := map[string]float64{
		"error_rate":   ratio(float64(o.failed), float64(o.attempted)),
		"ops":          float64(len(o.opMs)),
		"op_p50_ms":    median(o.opMs),
		"runs_per_s":   ratio(float64(o.runs), o.busyS),
		"ref_burst_ms": p.ref.burstMs(),
		"ref_bursts":   float64(len(p.ref.ms)),
	}
	for k, v := range o.report {
		r[k] = v
	}
	if p10, ok := tailPercentile(len(o.opMs)); ok {
		r["op_tail_percentile"] = float64(p10) / 10
		r["op_tail_ms"] = percentile(o.opMs, p10)
	}
	return r
}

func printEndToEnd(out io.Writer, res *resultSet, o *outcome) {
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-18s %14.6f %s\n", d.name, res.EndToEnd[d.name], d.unit)
	}
	rep := res.Report
	keys := make([]string, 0, len(rep))
	for k := range rep {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-18s %14.6f\n", k, rep[k])
	}
	fmt.Fprintf(out, "  samples: %d ops, %d set-ups, %d runs; %d attempted, %d failed\n",
		len(o.opMs), len(o.setupS), o.runs, o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintln(out, "  problem:", p)
	}
}

// printLedger writes the per-layer ledger and checks it against the
// workload design; a design expectation that fails is reported as a
// finding, not an error.
func printLedger(out io.Writer, name string, res *resultSet) {
	fmt.Fprintln(out, "ledger (traced pass):")
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-28s %14.6f %s\n", d.name, res.PerLayer[d.name], d.unit)
	}
	printShares(out, res.LayerCPU)
	for _, f := range designChecks(name, res.PerLayer) {
		fmt.Fprintln(out, "design:", f)
	}
}

// designChecks evaluates the expectations the workloads were chosen for.
func designChecks(name string, m map[string]float64) []string {
	verdict := func(ok bool, what string) string {
		if ok {
			return "holds: " + what
		}
		return "FINDING: " + what + " does not hold"
	}
	var out []string
	switch name {
	case "paper-sweep":
		largest := true
		for _, l := range cpuLayers {
			if l != "bayes" && l != "runtime" && l != "std" && m[l+".cpu_share"] > m["bayes.cpu_share"] {
				largest = false
			}
		}
		out = append(out, verdict(largest, "bayes.cpu_share is the largest in-repo share"))
	case "swarm-1000":
		out = append(out,
			verdict(m["bayes.cpu_share"] < 0.05, "bayes.cpu_share < 0.05"),
			verdict(m["mac.cpu_share"]+m["radio.cpu_share"]+m["sim.cpu_share"] > m["bayes.cpu_share"],
				"mac + radio + sim cpu shares exceed bayes"))
	}
	serviceOnly := m["serve.cpu_share"] > 0 && m["checkpoint.cpu_share"] > 0
	if name != "service" {
		serviceOnly = m["serve.cpu_share"] == 0 && m["checkpoint.cpu_share"] == 0
	}
	return append(out, verdict(serviceOnly, "serve and checkpoint cpu shares are non-zero only on service"))
}

// probeHost records where and what was measured.
func probeHost(root, commit string) hostInfo {
	h := hostInfo{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, SourceDigest: sourceDigest(root)}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// sourceDigest hashes every go.mod and .go file under root, so a result
// names the code it measured even in a checkout without git metadata.
func sourceDigest(root string) string {
	hash := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(hash, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		hash.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(hash.Sum(nil))[:16]
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareSets prints the median of every end-to-end metric in two sets of
// result files. It refuses sets that mix workloads or core counts.
func compareSets(out io.Writer, basePaths, headPaths []string) error {
	load := func(paths []string) ([]resultSet, error) {
		var sets []resultSet
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r resultSet
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			sets = append(sets, r)
		}
		return sets, nil
	}
	base, err := load(basePaths)
	if err != nil {
		return err
	}
	head, err := load(headPaths)
	if err != nil {
		return err
	}
	ref := base[0]
	for _, r := range append(append([]resultSet(nil), base...), head...) {
		if r.Workload != ref.Workload {
			return fmt.Errorf("refused: workloads differ (%s vs %s)", ref.Workload, r.Workload)
		}
		if r.Host.NumCPU != ref.Host.NumCPU || r.Host.GOMAXPROCS != ref.Host.GOMAXPROCS {
			return fmt.Errorf("refused: core counts differ (num_cpu %d/gomaxprocs %d vs %d/%d)",
				ref.Host.NumCPU, ref.Host.GOMAXPROCS, r.Host.NumCPU, r.Host.GOMAXPROCS)
		}
		if r.Host.GoVersion != ref.Host.GoVersion || r.Host.CPUModel != ref.Host.CPUModel {
			fmt.Fprintf(out, "WARNING: %s %q vs %s %q\n", ref.Host.GoVersion, ref.Host.CPUModel, r.Host.GoVersion, r.Host.CPUModel)
		}
	}
	fmt.Fprintf(out, "%s: %d base vs %d compared result sets\n", ref.Workload, len(base), len(head))
	for _, d := range endToEnd {
		var b, h []float64
		for _, r := range base {
			b = append(b, r.EndToEnd[d.name])
		}
		for _, r := range head {
			h = append(h, r.EndToEnd[d.name])
		}
		mb, mh := median(b), median(h)
		change := math.NaN()
		if mb != 0 {
			change = 100 * (mh - mb) / mb
		}
		fmt.Fprintf(out, "  %-18s %14.6f -> %14.6f %s (%+.1f%%)\n", d.name, mb, mh, d.unit, change)
	}
	return nil
}
