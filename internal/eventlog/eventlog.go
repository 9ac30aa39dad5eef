// Package eventlog holds the sinks of a CoCoA run's event stream
// (Config.Observer): Writer serializes the events to JSON Lines for
// offline analysis, one JSON object per event in virtual-time order, and
// Trace renders them as a span trace.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"cocoa/internal/cocoa"
)

// Writer streams events as JSONL. It buffers internally; call Flush (or
// Close) when the run completes.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewWriter wraps w. The caller retains ownership of any underlying file.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Observer returns the function that feeds the log: set it as
// Config.Observer, or call it from one that also feeds other sinks.
func (w *Writer) Observer() cocoa.Observer {
	return func(e cocoa.Event) {
		if w.err != nil {
			return
		}
		if err := w.enc.Encode(e); err != nil {
			w.err = err
			return
		}
		w.n++
	}
}

// Count returns the number of events written so far.
func (w *Writer) Count() int { return w.n }

// Flush drains the buffer and reports the first error the writer hit —
// a failed event encode inside Observer() (which otherwise stays invisible
// until here) or the drain itself. The error is sticky: every later Flush
// or Close reports it again.
func (w *Writer) Flush() error {
	// Drain even after a failed encode: the encoder marshals before it
	// writes, so the buffer only ever holds complete event lines — the
	// valid prefix still reaches the sink.
	ferr := w.bw.Flush()
	if w.err == nil {
		w.err = ferr
	}
	return w.err
}

// Close finalizes the log by flushing. It does not close the underlying
// writer — the caller retains ownership (NewWriter's contract). It exists
// so callers can defer one cleanup call and still see a swallowed encode
// error.
func (w *Writer) Close() error { return w.Flush() }

// Read parses a JSONL event stream back into events, for tooling and
// tests.
func Read(r io.Reader) ([]cocoa.Event, error) {
	var events []cocoa.Event
	dec := json.NewDecoder(r)
	for {
		var e cocoa.Event
		if err := dec.Decode(&e); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, fmt.Errorf("eventlog: event %d: %w", len(events), err)
		}
		events = append(events, e)
	}
}

// Stats aggregates an event stream into per-kind counts.
func Stats(events []cocoa.Event) map[cocoa.EventKind]int {
	out := make(map[cocoa.EventKind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}
