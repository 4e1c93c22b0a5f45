package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the run's observability endpoints:
//
//	/metrics        JSON snapshot of the metrics registry (expvar-style)
//	/healthz        liveness probe
//	/debug/flight   the recorder's held events, stamp-sorted JSON; ?dump=1
//	                additionally triggers the runtime's dump-to-disk hook
//	/debug/pprof/*  the standard pprof profiles
//
// The pprof handlers are registered on this mux explicitly rather than
// relying on net/http/pprof's DefaultServeMux side effects.
func Handler(o *Obs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(o.Registry().Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if !o.Recording() {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		dumped := false
		if r.URL.Query().Get("dump") == "1" {
			dumped = o.Recorder.RequestDump()
		}
		events := o.Recorder.Events()
		SortFlight(events)
		out := flightJSON{
			Recorded: o.Recorder.Recorded(),
			Held:     len(events),
			Dumped:   dumped,
			Events:   make([]evJSON, 0, len(events)),
		}
		for t, e := range events {
			stamp := make([]int, len(e.Stamp))
			copy(stamp, e.Stamp)
			out.Events = append(out.Events, evJSON{
				K: "ev", T: t, Node: e.Node, Proc: e.Proc, Seq: e.Seq,
				Phase: e.Phase.String(), Peer: e.Peer, Stamp: stamp, Note: e.Note,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// flightJSON is the /debug/flight response shape: the recorder's accounting
// plus its held events in the deterministic flight-dump order.
type flightJSON struct {
	Recorded uint64   `json:"recorded"`
	Held     int      `json:"held"`
	Dumped   bool     `json:"dumped,omitempty"`
	Events   []evJSON `json:"events"`
}

// evJSON is one event of a /debug/flight response. T is the event's
// position in the flight order; wall clocks never appear.
type evJSON struct {
	K     string `json:"k"` // "ev"
	T     int    `json:"t"`
	Node  int    `json:"node"`
	Proc  int    `json:"proc"`
	Seq   int    `json:"seq"`
	Phase string `json:"phase"`
	Peer  int    `json:"peer"`
	Stamp []int  `json:"stamp"`
	Note  string `json:"note,omitempty"`
}

// Server is a running observability HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the observability endpoints on addr (e.g. "127.0.0.1:0") and
// returns immediately; requests are handled until Close.
func Serve(addr string, o *Obs) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(o)}}
	go func() {
		// Serve returns http.ErrServerClosed after Close; nothing to do.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address, useful with ":0" listeners.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
