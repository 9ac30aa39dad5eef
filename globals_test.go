package cocoa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// packageVars allow-lists the package-level vars of the cocoa module's
// non-test code, keyed "<import path>.<name>"; every `var _ I = …`
// assertion of a package shares its "<import path>._" entry. Each entry
// says why the var may exist. The list only shrinks: a package-level var
// is state one test can leak into the next, so new state belongs in a
// field, a parameter or a function.
var packageVars = map[string]string{
	"cocoa.ErrInvalidConfig": "sentinel error",

	"cocoa/cmd/covergate.coveredRe": "compiled regexp, read-only",
	"cocoa/cmd/covergate.noStmtRe":  "compiled regexp, read-only",
	"cocoa/cmd/covergate.noTestRe":  "compiled regexp, read-only",

	"cocoa/internal/caltable._":       "compile-time interface assertion",
	"cocoa/internal/caltable.cache":   "calibration table cache; a hit returns the table a build would",
	"cocoa/internal/caltable.cacheMu": "guards the calibration table cache",

	"cocoa/internal/cocoa._":                "compile-time interface assertion",
	"cocoa/internal/cocoa.ErrInvalidConfig": "sentinel error",
	"cocoa/internal/cocoa.runSlots":         "run-slot free list; a warm slot runs byte-identical to a new one",
	"cocoa/internal/cocoa.flushBusyBounds":  "histogram bucket bounds, read-only",
	"cocoa/internal/cocoa.queueDepthBounds": "histogram bucket bounds, read-only",

	"cocoa/internal/energy.stateNames": "read-only state name table",

	"cocoa/internal/network._":             "compile-time interface assertion",
	"cocoa/internal/network.dropKindNames": "read-only series-suffix table",

	"cocoa/internal/obs.metricNameRe": "compiled regexp, read-only",
	"cocoa/internal/obs.labelNameRe":  "compiled regexp, read-only",

	"cocoa/internal/runner.ErrQueueFull":  "sentinel error",
	"cocoa/internal/runner.ErrPoolClosed": "sentinel error",
	"cocoa/internal/runner.telJobWall":    "instrument on telemetry.Default; perfbench's ledger reads it",
	"cocoa/internal/runner.telQueueWait":  "instrument on telemetry.Default; perfbench's ledger reads it",
	"cocoa/internal/runner.telInflight":   "instrument on telemetry.Default",
	"cocoa/internal/runner.telJobErrors":  "instrument on telemetry.Default",

	"cocoa/internal/serve.ErrDraining":         "sentinel error",
	"cocoa/internal/serve.ErrBadRequest":       "sentinel error",
	"cocoa/internal/serve.publishOnce":         "guards the process's one expvar registration",
	"cocoa/internal/serve.telAccepted":         "instrument on telemetry.Default; to become a Server field",
	"cocoa/internal/serve.telRejectedFull":     "instrument on telemetry.Default; perfbench's ledger reads it",
	"cocoa/internal/serve.telRejectedDraining": "instrument on telemetry.Default; perfbench's ledger reads it",
	"cocoa/internal/serve.telRejectedInvalid":  "instrument on telemetry.Default; perfbench's ledger reads it",
	"cocoa/internal/serve.telCompleted":        "instrument on telemetry.Default; to become a Server field",
	"cocoa/internal/serve.telFailed":           "instrument on telemetry.Default; to become a Server field",
	"cocoa/internal/serve.telCanceled":         "instrument on telemetry.Default; to become a Server field",

	"cocoa/internal/sim._":                "compile-time interface assertion",
	"cocoa/internal/sim.ErrNegativeDelay": "sentinel error",
	"cocoa/internal/sim.heapDepthBounds":  "histogram bucket bounds, read-only",
	"cocoa/internal/sim.seedCooked":       "seeding table computed once at init, then only read",
	"cocoa/internal/sim.lehmerPow":        "seeding table computed once at init, then only read",

	"cocoa/internal/telemetry.Default": "process-wide registry; perfbench's ledger reads it",
}

// Every package-level var in the module's non-test code is on the
// allow-list, and every allow-list entry still names one. Directories the
// go tool ignores (testdata, names starting with "." or "_") and nested
// modules (perfbench) are not part of the module and are skipped.
func TestPackageLevelVarsAllowListed(t *testing.T) {
	found := map[string][]string{} // key -> positions
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("cocoa", filepath.ToSlash(filepath.Dir(p)))
		for _, decl := range f.Decls {
			g, ok := decl.(*ast.GenDecl)
			if !ok || g.Tok != token.VAR {
				continue
			}
			for _, spec := range g.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					key := pkg + "." + n.Name
					found[key] = append(found[key], fset.Position(n.Pos()).String())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := packageVars[key]; !ok {
			t.Errorf("package-level var %s (%s) is not allow-listed: keep the state in a field, a parameter or a function",
				key, strings.Join(found[key], ", "))
		}
	}
	for key := range packageVars {
		if _, ok := found[key]; !ok {
			t.Errorf("allow-list entry %s names no package-level var: delete it", key)
		}
	}
}
