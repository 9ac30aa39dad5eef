package scenario

import (
	"bytes"
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
// testdata/golden_<family>.json. Each summary is taken from the Result
// after a JSON round trip, so a golden match also proves that the bytes
// cocoad serves carry the direct run's outcome. Regenerate deliberately
// with
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
			// Summarize the Result as a cocoad client sees it: decoded
			// from the JSON the service serves, which must re-encode to
			// the same bytes.
			served, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var decoded cocoa.Result
			if err := json.Unmarshal(served, &decoded); err != nil {
				t.Fatal(err)
			}
			again, err := json.Marshal(&decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, served) {
				t.Errorf("%s: Result does not survive a JSON round trip", family)
			}
			got, err := json.MarshalIndent(decoded.Summary(), "", "  ")
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
