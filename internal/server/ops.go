// The ops endpoint: an optional HTTP listener (`dbpl serve -ops addr`)
// exposing the same telemetry the wire protocol serves, in the formats
// operational tooling expects — Prometheus text exposition, the JSON
// trace ring (sampled and slow requests), and net/http/pprof. It shares
// the server's registry, so a scrape and a STATS frame report the same
// numbers.
//
// The endpoint is unauthenticated by design (like the wire protocol);
// cmd/dbpl binds it to loopback by default and docs/OBSERVABILITY.md
// carries the security note.
package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"dbpl/internal/telemetry"
	rtrace "dbpl/internal/telemetry/trace"
)

// OpsHandler returns the HTTP handler for the ops endpoint:
//
//	/metrics        Prometheus text exposition of the registry
//	/traces         JSON array of retained traces, sampled and slow, newest first
//	/debug/pprof/*  the standard runtime profiles
//
// The handler is safe for concurrent use and never touches locks a
// wedged writer could hold — all views are computed from snapshots.
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.m.reg.Snapshot()
		w.Header().Set("Content-Type", telemetry.PromContentType)
		snap.WriteProm(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		ds := s.Traces()
		if ds == nil {
			ds = []rtrace.Data{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ds)
	})
	// pprof's package-level handlers register on http.DefaultServeMux; wire
	// the explicit funcs instead so the ops mux is self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
