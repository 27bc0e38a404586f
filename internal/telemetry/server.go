package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is the optional HTTP exposition endpoint: Prometheus text at
// /metrics, the full JSON snapshot at /metrics.json, the flight-recorder
// contents at /flight, and net/http/pprof under /debug/pprof/ — all on a
// private mux so enabling telemetry never touches http.DefaultServeMux. Every
// handler serves the registry's published snapshot (Registry.Publish): the
// server's goroutines never read the simulation's fields.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Handler returns the exposition mux for reg's published snapshot, usable
// without a listener (tests scrape it through httptest or directly via
// ServeHTTP).
func Handler(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, reg.Published())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, reg.Published())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, &Snapshot{Flights: reg.Published().Flights})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve publishes reg's first snapshot and starts the exposition endpoint on
// addr (":0" picks a free port; see Addr). Call it on the simulation
// goroutine. The server runs until Close.
func Serve(reg *Registry, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg.Publish()
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(reg)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }
