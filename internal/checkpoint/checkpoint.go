// Package checkpoint implements the versioned snapshot codec behind the
// simulator's checkpoint/resume subsystem.
//
// A Snapshot captures everything needed to continue an interrupted run
// with byte-identical results: the full run configuration, the
// interruption point (sampling-tick index and virtual clock), and one
// digest per deterministic subsystem (event engine, RNG stream tree,
// belief grids, MAC medium, mobility legs, fault chains, per-robot state). Resume replays the run deterministically from tick
// zero and checks the live digests against the snapshot's at the recorded
// tick — a mismatch is reported as a *DivergenceError naming the
// subsystems that differ, which is what makes long runs bisectable (see
// DESIGN.md §14 for the model and its compatibility rule).
//
// The package is a leaf: it depends only on the standard library, so every
// simulation layer can expose a HashState method without import cycles.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Wire format: an 8-byte magic, a version, a payload length, a CRC32
// (IEEE) of the payload, then the JSON payload. The binary framing exists
// so truncation and bit rot are detected before the JSON decoder runs.
const (
	magic = "cocoackp"
	// Version is the snapshot wire-format version this build reads and
	// writes. Decoding any other version fails with a *FormatError: a
	// snapshot is only meaningful to the code revision that wrote it
	// (digest layouts track the simulator's internals), so there is no
	// cross-version migration — see DESIGN.md §14.
	Version   = 2
	headerLen = len(magic) + 2 + 4 + 4

	// maxPayload bounds the decoded payload so a corrupt length field
	// cannot drive a huge allocation.
	maxPayload = 1 << 30
)

// ErrCorrupt is the sentinel wrapped by every decoding failure: truncated
// input, bad magic, length or checksum mismatch, malformed payload.
// errors.Is(err, ErrCorrupt) classifies an error as "this is not a valid
// snapshot" without string matching.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// ErrStop is the sentinel a checkpoint hook returns to stop the run at the
// snapshot just captured. The run's RunContext call returns an error
// wrapping ErrStop; the partial run is discarded (it lives on in the
// snapshot). The differential test harness uses this to model "the process
// died right after checkpointing".
var ErrStop = errors.New("checkpoint: run stopped at checkpoint")

// FormatError reports why input failed to decode as a snapshot. It wraps
// ErrCorrupt.
type FormatError struct {
	// Reason is the human-readable explanation.
	Reason string
}

// Error implements the error interface.
func (e *FormatError) Error() string { return "checkpoint: " + e.Reason }

// Unwrap ties every FormatError to the ErrCorrupt sentinel.
func (e *FormatError) Unwrap() error { return ErrCorrupt }

// formatErrorf builds a *FormatError with a formatted reason.
func formatErrorf(format string, args ...any) *FormatError {
	return &FormatError{Reason: fmt.Sprintf(format, args...)}
}

// DivergenceError reports that a resumed run's replayed state did not
// match the snapshot at the recorded tick: either the simulation code
// changed since the snapshot was written, or a source of nondeterminism
// crept in. Subsystems names the digests that differ — the starting point
// for bisection.
type DivergenceError struct {
	// Tick is the sampling-tick index at which verification ran.
	Tick int
	// Subsystems lists the digest names that mismatched, in digest order.
	// The pseudo-name "layout" reports a digest-set shape mismatch (the
	// snapshot was written by a different code revision).
	Subsystems []string
}

// Error implements the error interface.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("checkpoint: replay diverged from snapshot at tick %d: %v",
		e.Tick, e.Subsystems)
}

// Digest is one subsystem's state fingerprint (FNV-1a 64 over its
// deterministic fields, see Hasher).
type Digest struct {
	Name string `json:"name"`
	Sum  uint64 `json:"sum"`
}

// Snapshot is one interruption point of a run.
type Snapshot struct {
	// TickIndex is the 1-based sampling tick after which the snapshot was
	// taken; SimNowS is the virtual clock at that tick.
	TickIndex int     `json:"tick"`
	SimNowS   float64 `json:"sim_now_s"`
	// ConfigJSON is the run's full configuration; resume replays it.
	ConfigJSON json.RawMessage `json:"config"`
	// Digests fingerprint every deterministic subsystem at the capture
	// point, in a fixed order.
	Digests []Digest `json:"digests"`
}

// Validate checks the invariants every well-formed snapshot satisfies.
// Violations are *FormatError (wrapping ErrCorrupt): a snapshot that
// decodes but fails Validate is still not a usable snapshot.
func (s *Snapshot) Validate() error {
	switch {
	case s.TickIndex < 1:
		return formatErrorf("tick index %d out of range", s.TickIndex)
	case math.IsNaN(s.SimNowS) || math.IsInf(s.SimNowS, 0) || s.SimNowS < 0:
		return formatErrorf("sim clock %v out of range", s.SimNowS)
	case len(s.ConfigJSON) == 0:
		return formatErrorf("snapshot carries no config")
	case len(s.Digests) == 0:
		return formatErrorf("snapshot carries no digests")
	}
	seen := make(map[string]bool, len(s.Digests))
	for _, d := range s.Digests {
		if d.Name == "" {
			return formatErrorf("unnamed digest")
		}
		if seen[d.Name] {
			return formatErrorf("duplicate digest %q", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// Marshal encodes the snapshot into the framed wire format.
func Marshal(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, formatErrorf("nil snapshot")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, formatErrorf("encode payload: %v", err)
	}
	b := make([]byte, headerLen+len(payload))
	copy(b, magic)
	binary.LittleEndian.PutUint16(b[8:], Version)
	binary.LittleEndian.PutUint32(b[10:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[14:], crc32.ChecksumIEEE(payload))
	copy(b[headerLen:], payload)
	return b, nil
}

// Unmarshal decodes a framed snapshot. Every failure — truncation, bad
// magic, unsupported version, checksum mismatch, malformed or invalid
// payload — is a *FormatError wrapping ErrCorrupt; Unmarshal never panics
// on hostile input.
func Unmarshal(b []byte) (*Snapshot, error) {
	if len(b) < headerLen {
		return nil, formatErrorf("truncated header: %d bytes", len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, formatErrorf("bad magic %q", b[:len(magic)])
	}
	if v := binary.LittleEndian.Uint16(b[8:]); v != Version {
		return nil, formatErrorf("unsupported snapshot version %d (this build reads %d)", v, Version)
	}
	n := binary.LittleEndian.Uint32(b[10:])
	if n > maxPayload {
		return nil, formatErrorf("payload length %d exceeds limit", n)
	}
	if int(n) != len(b)-headerLen {
		return nil, formatErrorf("payload length %d does not match %d trailing bytes", n, len(b)-headerLen)
	}
	payload := b[headerLen:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(b[14:]) {
		return nil, formatErrorf("payload checksum mismatch")
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, formatErrorf("decode payload: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WriteFile atomically persists the snapshot at path: the bytes land in a
// temporary file in the same directory and replace path with a rename, so
// a reader (or a process that dies mid-write) never observes a
// half-written snapshot. Neither the file nor its directory is synced, so
// the guarantee covers process death, not a host crash. Parent directories
// are created as needed.
func WriteFile(path string, s *Snapshot) error {
	b, err := Marshal(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadFile loads a snapshot written by WriteFile. Decoding failures are
// *FormatError wrapping ErrCorrupt; missing files surface the fs error.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Unmarshal(b)
}
