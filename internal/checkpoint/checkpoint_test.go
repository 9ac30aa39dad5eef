package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample returns a well-formed snapshot for codec tests.
func sample() *Snapshot {
	return &Snapshot{
		TickIndex:  7,
		SimNowS:    70.5,
		ConfigJSON: []byte(`{"robots":4}`),
		Digests: []Digest{
			{Name: "sim", Sum: 0xdeadbeef},
			{Name: "rng", Sum: 42},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	b, err := Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.TickIndex != s.TickIndex || got.SimNowS != s.SimNowS {
		t.Fatalf("header fields lost: got %+v want %+v", got, s)
	}
	if string(got.ConfigJSON) != string(s.ConfigJSON) {
		t.Fatalf("payload fields lost")
	}
	if len(got.Digests) != 2 || got.Digests[0] != s.Digests[0] || got.Digests[1] != s.Digests[1] {
		t.Fatalf("digests lost: %+v", got.Digests)
	}
	// Re-marshal must be deterministic.
	b2, err := Marshal(got)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if string(b) != string(b2) {
		t.Fatalf("Marshal not deterministic across a round trip")
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	if _, err := Marshal(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil snapshot: err=%v, want ErrCorrupt", err)
	}
	bad := sample()
	bad.TickIndex = 0
	if _, err := Marshal(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid snapshot: err=%v, want ErrCorrupt", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Snapshot)
		reason string
	}{
		{"tick zero", func(s *Snapshot) { s.TickIndex = 0 }, "tick index"},
		{"tick negative", func(s *Snapshot) { s.TickIndex = -3 }, "tick index"},
		{"nan clock", func(s *Snapshot) { s.SimNowS = nan() }, "sim clock"},
		{"negative clock", func(s *Snapshot) { s.SimNowS = -1 }, "sim clock"},
		{"no config", func(s *Snapshot) { s.ConfigJSON = nil }, "no config"},
		{"no digests", func(s *Snapshot) { s.Digests = nil }, "no digests"},
		{"unnamed digest", func(s *Snapshot) { s.Digests[1].Name = "" }, "unnamed"},
		{"duplicate digest", func(s *Snapshot) { s.Digests[1].Name = s.Digests[0].Name }, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sample()
			tc.mutate(s)
			err := s.Validate()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err=%v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("err=%v, want reason containing %q", err, tc.reason)
			}
		})
	}
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	good, err := Marshal(sample())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	corrupt := func(name string, mutate func([]byte) []byte, reason string) {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			b = mutate(b)
			s, err := Unmarshal(b)
			if s != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("snapshot=%v err=%v, want nil + ErrCorrupt", s, err)
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("err=%T, want *FormatError", err)
			}
			if !strings.Contains(err.Error(), reason) {
				t.Fatalf("err=%v, want reason containing %q", err, reason)
			}
		})
	}
	corrupt("empty", func(b []byte) []byte { return nil }, "truncated")
	corrupt("short header", func(b []byte) []byte { return b[:headerLen-1] }, "truncated")
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "bad magic")
	corrupt("future version", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[8:], Version+1)
		return b
	}, "unsupported snapshot version")
	// Version 1 carried the unread partial result and a label; its frames
	// are rejected, not half-read.
	corrupt("version 1", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[8:], 1)
		return b
	}, "unsupported snapshot version 1")
	corrupt("huge length", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[10:], maxPayload+1)
		return b
	}, "exceeds limit")
	corrupt("length mismatch", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[10:], uint32(len(b)-headerLen+1))
		return b
	}, "does not match")
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-2] }, "does not match")
	corrupt("bit flip in payload", func(b []byte) []byte { b[headerLen+3] ^= 0x10; return b }, "checksum")
	corrupt("bad crc field", func(b []byte) []byte { b[14] ^= 0x01; return b }, "checksum")
	corrupt("non-json payload", func(b []byte) []byte {
		payload := []byte("not json at all")
		return frame(payload)
	}, "decode payload")
	corrupt("valid json invalid snapshot", func(b []byte) []byte {
		payload := []byte(`{"tick":0}`)
		return frame(payload)
	}, "tick index")
}

// frame wraps payload in a correct header (right length and CRC), used to
// reach the post-checksum decode paths.
func frame(payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+len(payload))
	copy(b, magic)
	binary.LittleEndian.PutUint16(b[8:], Version)
	binary.LittleEndian.PutUint32(b[10:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[14:], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "latest.ckpt")
	s := sample()
	if err := WriteFile(path, s); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.TickIndex != s.TickIndex || string(got.ConfigJSON) != string(s.ConfigJSON) {
		t.Fatalf("round trip through file lost data: %+v", got)
	}
	// Overwrite replaces atomically (same path, new content).
	s.TickIndex = 8
	if err := WriteFile(path, s); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile after overwrite: %v", err)
	}
	if got.TickIndex != 8 {
		t.Fatalf("overwrite lost: tick=%d", got.TickIndex)
	}
}

func TestWriteFileRejectsInvalid(t *testing.T) {
	bad := sample()
	bad.Digests = nil
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := WriteFile(path, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("invalid snapshot still wrote a file")
	}
}

func TestWriteFileFsErrors(t *testing.T) {
	dir := t.TempDir()
	// Parent "directory" is a regular file: MkdirAll fails.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(blocker, "sub", "latest.ckpt"), sample()); err == nil {
		t.Fatalf("WriteFile under a regular file succeeded")
	}
	// Destination path is an existing directory: the final rename fails and
	// the temp file is cleaned up.
	asDir := filepath.Join(dir, "isdir")
	if err := os.MkdirAll(filepath.Join(asDir, "nested"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(asDir, sample()); err == nil {
		t.Fatalf("WriteFile over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("temp file %s left behind after rename failure", e.Name())
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err=%v, want fs not-exist", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file misclassified as corrupt")
	}
}

func TestReadFileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", err)
	}
}

func TestErrorStrings(t *testing.T) {
	fe := formatErrorf("because %d", 7)
	if fe.Error() != "checkpoint: because 7" {
		t.Fatalf("FormatError.Error() = %q", fe.Error())
	}
	de := &DivergenceError{Tick: 3, Subsystems: []string{"rng", "mac"}}
	msg := de.Error()
	if !strings.Contains(msg, "tick 3") || !strings.Contains(msg, "rng") || !strings.Contains(msg, "mac") {
		t.Fatalf("DivergenceError.Error() = %q", msg)
	}
}

func TestHasher(t *testing.T) {
	// Identical write sequences hash identically; any difference changes
	// the sum.
	base := func() uint64 {
		h := NewHasher()
		h.U64(1)
		h.I64(-2)
		h.Int(3)
		h.F64(4.5)
		h.Bool(true)
		h.Str("abc")
		return h.Sum()
	}
	if base() != base() {
		t.Fatalf("Hasher not deterministic")
	}
	variants := []func(*Hasher){
		func(h *Hasher) {
			h.U64(2)
			h.I64(-2)
			h.Int(3)
			h.F64(4.5)
			h.Bool(true)
			h.Str("abc")
		},
		func(h *Hasher) {
			h.U64(1)
			h.I64(2)
			h.Int(3)
			h.F64(4.5)
			h.Bool(true)
			h.Str("abc")
		},
		func(h *Hasher) {
			h.U64(1)
			h.I64(-2)
			h.Int(4)
			h.F64(4.5)
			h.Bool(true)
			h.Str("abc")
		},
		func(h *Hasher) {
			h.U64(1)
			h.I64(-2)
			h.Int(3)
			h.F64(4.6)
			h.Bool(true)
			h.Str("abc")
		},
		func(h *Hasher) {
			h.U64(1)
			h.I64(-2)
			h.Int(3)
			h.F64(4.5)
			h.Bool(false)
			h.Str("abc")
		},
		func(h *Hasher) {
			h.U64(1)
			h.I64(-2)
			h.Int(3)
			h.F64(4.5)
			h.Bool(true)
			h.Str("abd")
		},
	}
	for i, v := range variants {
		h := NewHasher()
		v(h)
		if h.Sum() == base() {
			t.Fatalf("variant %d collided with base", i)
		}
	}
	// -0.0 and +0.0 have different bit patterns and must hash differently.
	hp, hn := NewHasher(), NewHasher()
	hp.F64(0.0)
	hn.F64(negZero())
	if hp.Sum() == hn.Sum() {
		t.Fatalf("+0.0 and -0.0 hashed equal; bit-pattern hashing broken")
	}
	// Str is length-prefixed: "ab"+"c" vs "a"+"bc" must differ.
	h1, h2 := NewHasher(), NewHasher()
	h1.Str("ab")
	h1.Str("c")
	h2.Str("a")
	h2.Str("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatalf("Str concatenation ambiguity: length prefix not working")
	}
	// Empty hasher equals the FNV offset basis.
	if NewHasher().Sum() != uint64(fnvOffset) {
		t.Fatalf("empty hasher sum = %d, want offset basis", NewHasher().Sum())
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}
