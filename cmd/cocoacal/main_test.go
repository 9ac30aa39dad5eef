package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSummaryTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-samples", "60000"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rssi(dBm)") {
		t.Errorf("missing header:\n%.120s", out)
	}
	if !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Error("summary lacks both Gaussian and non-Gaussian rows")
	}
}

func TestSummaryCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-samples", "60000", "-csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "rssi_dbm,gaussian,mean_m,std_m,nominal_m\n") {
		t.Errorf("CSV header missing:\n%.80s", buf.String())
	}
}

func TestCurveCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-samples", "60000", "-rssi", "-52", "-csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "distance_m,density\n") {
		t.Errorf("curve header missing:\n%.80s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 100 {
		t.Errorf("curve too short: %d lines", lines)
	}
}

func TestCurveASCII(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-samples", "60000", "-rssi", "-52"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "gaussian=true") || !strings.Contains(out, "#") {
		t.Errorf("ASCII profile malformed:\n%.200s", out)
	}
}

func TestUncalibratedRSSIRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-samples", "60000", "-rssi", "-20"}, &buf); err == nil {
		t.Fatal("accepted uncalibrated RSSI")
	}
}

func TestBadFlagRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Fatal("accepted unknown flag")
	}
}

// A step that is zero, negative, infinite or NaN would never advance the
// curve loop past MaxDist; it is a flag error before any calibration runs.
func TestBadStepRejected(t *testing.T) {
	for _, step := range []string{"0", "-0.5", "NaN", "+Inf"} {
		var buf bytes.Buffer
		if err := run([]string{"-rssi", "-70", "-step", step}, &buf); err == nil {
			t.Errorf("-step %s accepted", step)
		}
	}
}
