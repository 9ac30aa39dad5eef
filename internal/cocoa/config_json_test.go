package cocoa

import (
	"encoding/json"
	"testing"

	"cocoa/internal/obs"
)

// The operational fields describe how the hosting process watches a run,
// not the experiment: they must not leak into the config's JSON form, or
// a job record would stop being byte-comparable to a plain config.
func TestOperationalFieldsExcludedFromJSON(t *testing.T) {
	cfg := quickCfg()
	plain, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Progress = &obs.Progress{}
	cfg.Observer = func(Event) {}
	tapped, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != string(tapped) {
		t.Fatal("Progress or Observer leaks into config JSON")
	}
}
