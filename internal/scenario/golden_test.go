package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cocoa/internal/cocoa"
)

// The golden mini-suite pins one quick-scale replication per figure
// family. Every run is seed-deterministic, so the summaries must match
// the checked-in files byte for byte — any drift in the simulation,
// MAC, localization, or energy model shows up here as a diff against
// testdata/golden_<family>.json. Regenerate deliberately with
//
//	go test ./internal/scenario/ -run TestGolden -update

var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

func TestGoldenRegression(t *testing.T) {
	for family, cfg := range QuickFamilies() {
		t.Run(family, func(t *testing.T) {
			res, err := cocoa.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res.Summary(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", "golden_"+family+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s drifted from golden file %s\ngot:\n%swant:\n%s",
					family, path, got, want)
			}
		})
	}
}
