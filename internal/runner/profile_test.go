package runner

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilesWritesAllOutputs(t *testing.T) {
	dir := t.TempDir()
	cfg := ProfileConfig{
		CPUPath:   filepath.Join(dir, "cpu.pprof"),
		MemPath:   filepath.Join(dir, "mem.pprof"),
		TracePath: filepath.Join(dir, "trace.out"),
	}
	if !cfg.Enabled() {
		t.Fatal("Enabled() = false with all paths set")
	}
	stop, err := StartProfiles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have content.
	sink := 0.0
	for i := 0; i < 1_000_000; i++ {
		sink += float64(i % 7)
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cfg.CPUPath, cfg.MemPath, cfg.TracePath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Errorf("missing profile %s: %v", p, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesZeroValueIsNoOp(t *testing.T) {
	var cfg ProfileConfig
	if cfg.Enabled() {
		t.Fatal("zero value reports Enabled")
	}
	stop, err := StartProfiles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	_, err := StartProfiles(ProfileConfig{CPUPath: filepath.Join(t.TempDir(), "no", "such", "dir", "x")})
	if err == nil {
		t.Fatal("unwritable CPU path accepted")
	}
}

// A trace that cannot start undoes the CPU profile already running, so the
// process is left free to profile again.
func TestStartProfilesBadTracePathStopsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	_, err := StartProfiles(ProfileConfig{
		CPUPath:   filepath.Join(dir, "cpu.pprof"),
		TracePath: filepath.Join(dir, "no", "such", "dir", "trace.out"),
	})
	if err == nil {
		t.Fatal("unwritable trace path accepted")
	}
	stop, err := StartProfiles(ProfileConfig{CPUPath: filepath.Join(dir, "again.pprof")})
	if err != nil {
		t.Fatalf("CPU profile still running after the failed start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// A heap profile that cannot be written fails stop, not start.
func TestStartProfilesBadMemPathFailsStop(t *testing.T) {
	stop, err := StartProfiles(ProfileConfig{MemPath: filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("stop reported no error for an unwritable heap profile path")
	}
}
