// Fuzz coverage for the snapshot codec, in an external test package so it
// can drive the real resume path (internal/cocoa) against arbitrary
// snapshot bytes — the property under test is that hostile input produces
// typed errors, never a panic, and that anything that decodes also
// round-trips and resumes coherently.
package checkpoint_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"cocoa/internal/checkpoint"
	"cocoa/internal/cocoa"
)

// fuzzConfig is the canonical tiny run the oracle comparison keys on: six
// sampling ticks, small grid, full pipeline.
func fuzzConfig() cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 6
	cfg.NumEquipped = 2
	cfg.DurationS = 60
	cfg.SampleIntervalS = 10
	cfg.GridCellM = 8
	cfg.Calibration.Samples = 20000
	return cfg
}

// fuzzOracle lazily runs the canonical config once: its result bytes, its
// embedded-config bytes, and one real mid-run snapshot per tick.
var fuzzOracle struct {
	once    sync.Once
	err     error
	cfgJSON []byte
	result  []byte
	wires   [][]byte
}

func fuzzSetup() error {
	fuzzOracle.once.Do(func() {
		cfg := fuzzConfig()
		b, err := json.Marshal(cfg)
		if err != nil {
			fuzzOracle.err = err
			return
		}
		fuzzOracle.cfgJSON = b
		team, err := cocoa.NewTeam(cfg)
		if err != nil {
			fuzzOracle.err = err
			return
		}
		team.OnCheckpoint(func(s *checkpoint.Snapshot) error {
			w, err := checkpoint.Marshal(s)
			if err != nil {
				return err
			}
			fuzzOracle.wires = append(fuzzOracle.wires, w)
			return nil
		})
		res, err := team.RunContext(context.Background())
		if err != nil {
			fuzzOracle.err = err
			return
		}
		fuzzOracle.result, fuzzOracle.err = json.Marshal(res)
	})
	return fuzzOracle.err
}

// FuzzCheckpointRoundTrip holds the codec to three properties on arbitrary
// bytes:
//
//  1. decoding never panics; failures are *FormatError wrapping
//     ErrCorrupt;
//  2. whatever decodes re-encodes and decodes again to the same snapshot
//     (marshal/unmarshal is a retraction);
//  3. a decoded snapshot whose embedded config is the canonical tiny run
//     either resumes to the oracle's exact result bytes or fails with a
//     typed error (divergence or format) — fuzzed digests cannot smuggle
//     a silently-wrong result past verification.
func FuzzCheckpointRoundTrip(f *testing.F) {
	if err := fuzzSetup(); err != nil {
		f.Fatalf("oracle setup: %v", err)
	}
	f.Add([]byte{})
	f.Add([]byte("cocoackp"))
	f.Add([]byte("not a snapshot at all"))
	for _, w := range fuzzOracle.wires {
		f.Add(w)
	}
	// A corrupted real snapshot: one flipped payload bit.
	flip := append([]byte(nil), fuzzOracle.wires[0]...)
	flip[len(flip)-3] ^= 0x04
	f.Add(flip)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := checkpoint.Unmarshal(b)
		if err != nil {
			if s != nil {
				t.Fatalf("Unmarshal returned both snapshot and error %v", err)
			}
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("decode failure not classified corrupt: %v", err)
			}
			var fe *checkpoint.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode failure not a *FormatError: %T %v", err, err)
			}
			return
		}

		// Retraction: re-encode, decode, compare canonical JSON forms.
		w2, err := checkpoint.Marshal(s)
		if err != nil {
			t.Fatalf("re-Marshal of decoded snapshot failed: %v", err)
		}
		s2, err := checkpoint.Unmarshal(w2)
		if err != nil {
			t.Fatalf("decode of re-Marshal failed: %v", err)
		}
		j1, _ := json.Marshal(s)
		j2, _ := json.Marshal(s2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("round trip not stable:\n%s\n%s", j1, j2)
		}

		// Resume-vs-oracle, only when the embedded config is the canonical
		// run (anything else would be an arbitrary-length simulation).
		if !bytes.Equal(s.ConfigJSON, fuzzOracle.cfgJSON) {
			return
		}
		res, err := cocoa.ResumeFrom(context.Background(), s)
		if err != nil {
			var de *checkpoint.DivergenceError
			if errors.As(err, &de) || errors.Is(err, checkpoint.ErrCorrupt) {
				return // typed rejection of a tampered snapshot
			}
			t.Fatalf("resume failed with untyped error: %v", err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fuzzOracle.result) {
			t.Fatalf("fuzzed snapshot resumed to a result that differs from the oracle")
		}
	})
}
