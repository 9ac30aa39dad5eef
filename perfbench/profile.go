package main

// A minimal reader for the gzipped protobuf profiles runtime/pprof writes,
// and the rule that charges each sampled stack to one layer of the repo.
// Only the fields the ledger needs are decoded: sample types, samples, and
// the location -> function -> name chain.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profile is a decoded CPU profile: one stack per sample, leaf first,
// with inlined frames expanded innermost first.
type profile struct {
	sampleTypes []string // "<type>/<unit>" per sample value column
	samples     []profileSample
}

type profileSample struct {
	stack  []string
	values []int64
}

// valueIndex returns the value column whose type/unit is want, or -1.
func (p *profile) valueIndex(want string) int {
	for i, t := range p.sampleTypes {
		if t == want {
			return i
		}
	}
	return -1
}

// pbuf walks one protobuf message.
type pbuf struct {
	b []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads the next key and returns its number, wire type, the varint
// value (wire type 0) or the payload (wire type 2). Fixed-width fields are
// skipped; the profile format uses none that matter here.
func (p *pbuf) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// appendVarints adds a repeated integer field, packed (wire type 2) or
// not (wire type 0); runtime/pprof writes short lists unpacked.
func appendVarints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	inner := pbuf{payload}
	for len(inner.b) > 0 {
		x, err := inner.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile parses a gzipped (or raw) profile.proto message.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		typeIdx [][2]uint64 // (type, unit) string indices
		raw     []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	top := pbuf{data}
	for len(top.b) > 0 {
		num, _, _, payload, err := top.field()
		if err != nil {
			return nil, err
		}
		msg := pbuf{payload}
		switch num {
		case 1: // sample_type
			var t [2]uint64
			for len(msg.b) > 0 {
				n, _, x, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				if n == 1 || n == 2 {
					t[n-1] = x
				}
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample
			var s rawSample
			for len(msg.b) > 0 {
				n, w, x, pl, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, w, x, pl)
				case 2:
					s.values, err = appendVarints(s.values, w, x, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			raw = append(raw, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				n, _, x, pl, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 4: // line: function_id is field 1
					line := pbuf{pl}
					for len(line.b) > 0 {
						ln, _, lx, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lx)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // function
			var id, name uint64
			for len(msg.b) > 0 {
				n, _, x, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for _, s := range raw {
		ps := profileSample{values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ps.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.stack = append(ps.stack, str(fnName[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// packageOf returns the import path of a symbolized Go function name such
// as "cocoa/internal/mac.(*Medium).beginReception" or
// "cocoa/internal/runner.Map[go.shape.struct {}].func1".
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// repoLayer names the layer of an in-repo frame: the root package and
// internal/cocoa are "cocoa", internal/telemetry joins "obs", and every
// other internal/<pkg>[/sub] is <pkg>. ok is false outside the module.
func repoLayer(fn string) (layer string, ok bool) {
	pkg := packageOf(fn)
	if pkg == "cocoa" {
		return "cocoa", true
	}
	rest, found := strings.CutPrefix(pkg, "cocoa/")
	if !found {
		return "", false
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "telemetry" {
		return "obs", true
	}
	return rest, true
}

// layerOf charges a stack (leaf first) to one layer: a runtime leaf is
// "runtime"; otherwise the innermost cocoa/... frame decides; a stack with
// no in-repo frame is "std".
func layerOf(stack []string) string {
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "runtime"
	}
	for _, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			return l
		}
	}
	return "std"
}

// layerCPU sums the CPU nanoseconds of every sample per layer.
func layerCPU(p *profile) map[string]int64 {
	col := p.valueIndex("cpu/nanoseconds")
	out := map[string]int64{}
	if col < 0 {
		return out
	}
	for _, s := range p.samples {
		if col < len(s.values) {
			out[layerOf(s.stack)] += s.values[col]
		}
	}
	return out
}

// shares turns per-layer totals into fractions of their sum. The result is
// empty when nothing was sampled, and otherwise sums to 1.
func shares(cpu map[string]int64) map[string]float64 {
	var total int64
	for _, v := range cpu {
		total += v
	}
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for l, v := range cpu {
		out[l] = float64(v) / float64(total)
	}
	return out
}

// sortedLayers lists layers by descending share, ties by name.
func sortedLayers(sh map[string]float64) []string {
	names := make([]string, 0, len(sh))
	for l := range sh {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool {
		if sh[names[i]] != sh[names[j]] {
			return sh[names[i]] > sh[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
