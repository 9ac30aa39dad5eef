package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	in := []TraceEvent{
		{Name: "process_name", Phase: PhaseMeta, Args: map[string]any{"name": "run 0"}},
		{Name: "thread_name", Phase: PhaseMeta, Args: map[string]any{"name": "event-loop"}},
		{Name: "run", Phase: PhaseBegin, Args: map[string]any{"robots": 5.0}},
		{Name: "sampling-window", Phase: PhaseBegin, TsUs: 1e6},
		{Name: "mac-frame", Phase: PhaseInstant, TsUs: 1.25e6, Scope: "t", Args: map[string]any{"src": 3.0}},
		{Name: "belief-update", Phase: PhaseComplete, TsUs: 1.5e6, TID: 7},
		{Name: "sampling-window", Phase: PhaseEnd, TsUs: 2e6},
		{Name: "run", Phase: PhaseEnd, TsUs: 3e6},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	events, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(events, in) {
		t.Fatalf("round trip changed the events:\n in: %+v\nout: %+v", in, events)
	}
	// Re-serialize: byte-identical (order is preserved).
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, events); err != nil {
		t.Fatalf("re-serialize: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("round-trip is not byte-identical")
	}
}

func TestTraceWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("empty trace serialized as %q, want empty traceEvents array", buf.String())
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Fatalf("ReadTrace of empty trace: %v", err)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"not json", `{`, "decode trace"},
		{"unknown field", `{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":0,"tid":0,"bogus":1}]}`, "decode trace"},
		{"empty name", `{"traceEvents":[{"name":"","ph":"i","ts":0,"pid":0,"tid":0}]}`, "empty name"},
		{"unknown phase", `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`, "unknown phase"},
		{"end without begin", `{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":0,"tid":0}]}`, "no open span"},
		{"end name mismatch", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},{"name":"b","ph":"E","ts":1,"pid":0,"tid":0}]}`, "does not match"},
		{"unbalanced", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0}]}`, "still open"},
		{"negative duration", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`, "negative duration"},
		{"negative timestamp", `{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":0,"tid":0}]}`, "negative timestamp"},
		{"cross-track end", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},{"name":"a","ph":"E","ts":1,"pid":0,"tid":1}]}`, "no open span"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("ReadTrace accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
