package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// HTTP surface of the flight recorder (registry.go): the run listing,
// the per-run detail document, and the live progress event stream.

// handleRuns serves GET /v1/runs: the flight recorder's live set plus
// its ring of recent runs, newest first, filtered by ?app=, ?kind=,
// ?state=, ?key=, ?trace= and paged with ?limit=/?offset= — the same
// shape as /v1/results, with total counting every match.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	app, kind, state, key, trace := q.Get("app"), q.Get("kind"), q.Get("state"), q.Get("key"), q.Get("trace")
	runs, total, offset, err := paged(q, s.runs.List, func(info RunInfo) bool {
		return wants(app, info.App) && wants(kind, info.Kind) && wants(state, string(info.State)) &&
			wants(key, info.Key) && wants(trace, info.Trace)
	})
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Count  int       `json:"count"`
		Total  int       `json:"total"`
		Offset int       `json:"offset"`
		Runs   []RunInfo `json:"runs"`
	}{Count: len(runs), Total: total, Offset: offset, Runs: runs})
}

// handleRunDetail serves GET /v1/runs/{id}: one run's full lifecycle
// record — state, outcome, per-phase timings, cumulative progress
// counters, and the trace ID that deep-links its span tree via
// GET /v1/spans?trace=<trace>.
func (s *Server) handleRunDetail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, events, ok := s.runs.Get(id)
	if !ok {
		fail(w, http.StatusNotFound, fmt.Errorf("run %q not found (the recent-runs ring is bounded)", id))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Run    RunInfo    `json:"run"`
		Events []RunEvent `json:"events"`
	}{Run: info, Events: events})
}

// handleRunEvents serves GET /v1/runs/{id}/events: the run's lifecycle
// events as ndjson — the retained history first, then (for a live run)
// each new event as it happens, flushed per line like /v1/sweep. The
// stream ends when the run reaches a terminal state or the client
// disconnects, so `curl` on an active run is a live progress tail.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	history, live, cancel, ok := s.runs.Watch(id)
	if !ok {
		fail(w, http.StatusNotFound, fmt.Errorf("run %q not found (the recent-runs ring is bounded)", id))
		return
	}
	defer cancel()
	enc := json.NewEncoder(ndjson(w))
	for _, ev := range history {
		enc.Encode(ev)
	}
	if live == nil {
		return
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				return
			}
			enc.Encode(ev)
		case <-r.Context().Done():
			return
		}
	}
}
