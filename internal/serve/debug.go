package serve

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"cocoa/internal/obs"
	"cocoa/internal/telemetry"
)

// publishOnce guards expvar registration: expvar.Publish panics on a
// duplicate name, and tests start many debug servers in one process.
var publishOnce sync.Once

// publishTelemetryVar exposes the process-global registry as the expvar
// variable "telemetry", so /debug/vars serves a full snapshot alongside
// the standard memstats/cmdline variables.
func publishTelemetryVar() {
	publishOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			return telemetry.Default.Snapshot()
		}))
	})
}

// DebugMux returns the private diagnostics mux: expvar under /debug/vars
// (including the telemetry snapshot), Prometheus exposition under
// /metrics (registry + runtime metrics; service-level job gauges live on
// the public handler's /metrics, which knows the Server), and the pprof
// suite under /debug/pprof/. It is deliberately separate from the public
// API handler so operators can bind it to a loopback-only address.
func DebugMux() *http.ServeMux {
	publishTelemetryVar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(telemetry.Default, nil))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartDebugServer serves DebugMux on its own listener (never
// http.DefaultServeMux, which would leak handlers into importers). It
// returns the actual listen address, so ":0" works in tests, and a stop
// function that closes the listener and every open connection and waits
// for the serve goroutine to return.
func StartDebugServer(addr string) (actual string, stop func(), err error) {
	mux := DebugMux()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("debug server: %w", err)
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}
