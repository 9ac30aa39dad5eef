package serve

// The HTTP surface of the service. Error taxonomy maps onto status codes:
//
//	400  invalid config (field + reason) or malformed request
//	404  unknown job ID
//	409  result requested before the job reached the done state
//	413  submit body larger than maxSubmitBody
//	429  queue full (Retry-After hints when to resubmit)
//	503  draining after SIGTERM (Retry-After; try another replica)
//
// The events endpoint streams newline-delimited JSON status snapshots —
// one line per state change or sampled progress change — until the job is
// terminal or the client goes away.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cocoa"
	"cocoa/internal/obs"
	"cocoa/internal/runner"
	"cocoa/internal/telemetry"
)

// Handler returns the service's public API mux, wrapped in the request-ID
// and access-log middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/telemetry", s.handleTelemetry)
	mux.Handle("GET /metrics", obs.Handler(telemetry.Default, s.metricSamples))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return s.withRequestLog(mux)
}

// statusWriter captures the response code for the access log, forwarding
// Flush so the NDJSON events stream keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withRequestLog assigns every request a process-unique ID (echoed as
// X-Request-ID) and emits one structured access record per request.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Debug("request",
			"request_id", reqID, "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration_ms", time.Since(start).Milliseconds())
	})
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error  string `json:"error"`
	Field  string `json:"field,omitempty"`
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfter is the Retry-After hint, in seconds, sent with 429 and 503
// responses.
const retryAfter = "1"

// maxSubmitBody caps a POST /v1/jobs body. A full Config or experiment
// request encodes to a few kilobytes, so 1 MiB never rejects a real job
// while keeping a client from streaming an unbounded body into the decoder.
const maxSubmitBody = 1 << 20

// decodeOne decodes the single JSON value r holds into v. Anything but
// whitespace after the value is an error, so a body that concatenates
// requests is refused instead of queuing its first one.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	default:
		return errors.New("trailing data after the request object")
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeOne(http.MaxBytesReader(w, r.Body, maxSubmitBody), &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid JSON: " + err.Error()})
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		var ce *cocoa.ConfigError
		switch {
		case errors.As(err, &ce):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Field: ce.Field, Reason: ce.Reason})
		case errors.Is(err, ErrBadRequest):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		case errors.Is(err, runner.ErrQueueFull):
			w.Header().Set("Retry-After", retryAfter)
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retryAfter)
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	b, ready := j.Result()
	if !ready {
		st := j.Status()
		code := http.StatusConflict
		writeJSON(w, code, errorBody{Error: "job " + st.ID + " is " + string(st.State) + ", not done", Reason: st.Error})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// handleTrace serves a done job's recorded span timeline as Chrome
// trace-event JSON (load it in Perfetto or chrome://tracing). 409 while
// the job is live, 404 when the submission did not request tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	b, ready := j.Trace()
	if !ready {
		st := j.Status()
		if !st.State.Terminal() {
			writeJSON(w, http.StatusConflict, errorBody{Error: "job " + st.ID + " is " + string(st.State) + ", trace not ready"})
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{Error: "job " + st.ID + " has no trace (submit with \"trace\": true)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.Status())
}

// eventsTickInterval paces live-progress re-reads on the events stream:
// state transitions still stream immediately via the watch channel, but
// gauge progress — completed runs and the executing run's tick, which can
// change thousands of times a second and deliberately does not fire the
// channel — is sampled on this coarse ticker, keeping the stream's line
// rate bounded.
const eventsTickInterval = 250 * time.Millisecond

// handleEvents streams NDJSON status snapshots until the job terminates
// or the client disconnects. Each distinct snapshot produces exactly one
// line: lines are emitted on state changes and whenever a ticker re-read
// observes different live progress, never for identical statuses.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(eventsTickInterval)
	defer ticker.Stop()
	var last JobStatus
	emitted := false
	for {
		st, changed := j.Watch()
		if !emitted || st != last {
			if err := enc.Encode(st); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			last, emitted = st, true
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-changed:
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

// experimentInfo is one registry entry on the wire.
type experimentInfo struct {
	Name  string `json:"name"`
	Flag  string `json:"flag"`
	Title string `json:"title"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	ds := cocoa.Experiments()
	out := make([]experimentInfo, len(ds))
	for i, d := range ds {
		out[i] = experimentInfo{Name: d.Name, Flag: d.Flag, Title: d.Title}
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, telemetry.Default.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"queued":   st.Queued,
		"inflight": st.InFlight,
		"workers":  st.Workers,
		"capacity": st.Capacity,
	})
}
