package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"cocoa/internal/serve"
)

func TestSmokeFamily(t *testing.T) {
	cases := []struct {
		path, want string
		wantErr    bool
	}{
		{"internal/scenario/testdata/golden_odometry.json", "odometry", false},
		{"golden_rf-only.json", "rf-only", false},
		{"/abs/path/golden_faults.json", "faults", false},
		{"notgolden.json", "", true},
		{"golden_.json", "", false}, // empty family; rejected later by QuickFamilies lookup
	}
	for _, tc := range cases {
		got, err := smokeFamily(tc.path)
		if (err != nil) != tc.wantErr {
			t.Errorf("smokeFamily(%q) err = %v, wantErr %v", tc.path, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("smokeFamily(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestRunSmokeEndToEnd exercises the full daemon path the way `make
// serve-smoke` does: real HTTP server, real simulation, byte-compare
// against the checked-in golden summary.
func TestRunSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden simulation; skipped in -short")
	}
	golden := filepath.Join("..", "..", "internal", "scenario", "testdata", "golden_odometry.json")
	if err := run([]string{"-smoke", golden, "-workers", "2"}, io.Discard); err != nil {
		t.Fatalf("smoke: %v", err)
	}
}

func TestRunSmokeUnknownFamily(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	if err := runSmoke(srv, "golden_nosuch.json", io.Discard); err == nil || !strings.Contains(err.Error(), "unknown golden family") {
		t.Fatalf("err = %v, want unknown family", err)
	}
	if err := runSmoke(srv, "bogus.json", io.Discard); err == nil {
		t.Fatal("expected error for non-golden path")
	}
}

func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nonsense"}, &buf); err == nil {
		t.Fatal("expected flag parse error")
	}
	if err := run([]string{"-addr", "256.0.0.1:99999"}, &buf); err == nil {
		t.Fatal("expected listen error for bad address")
	}
}
