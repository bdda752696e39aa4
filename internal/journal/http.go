package journal

import (
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// heartbeatInterval paces the SSE comment frames keeping an idle event
// stream alive through proxies and load balancers that reap quiet
// connections. Comment frames (": ...") are invisible to EventSource
// clients. Package variable so tests can shrink it.
var heartbeatInterval = 15 * time.Second

// Mount registers the live-progress endpoints on mux, next to the -pprof
// handlers when mux is http.DefaultServeMux:
//
//	/debug/circ/progress   JSON ProgressSnapshot of per-case batch state
//	/debug/circ/events     text/event-stream (SSE) of journal events
//
// Both endpoints are read-only and safe while analyses are running.
func Mount(mux *http.ServeMux, r *Recorder) {
	mux.HandleFunc("/debug/circ/progress", r.ServeProgress)
	mux.HandleFunc("/debug/circ/events", r.ServeEvents)
}

// ServeProgress writes the current ProgressSnapshot as indented JSON.
func (r *Recorder) ServeProgress(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Progress()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ServeEvents streams the journal as server-sent events: every recorded
// event is replayed first (in emission order), then live events follow as
// they are emitted, until the client disconnects. Each event is one
// "data: <json>" frame; slow clients may miss live events (the frame
// stream is a view, the canonical journal is not lossy).
func (r *Recorder) ServeEvents(w http.ResponseWriter, req *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	replay, live, cancel := r.SubscribeFrom(0)
	defer cancel()
	for _, e := range replay {
		if WriteSSE(w, e) != nil {
			return
		}
	}
	if r == nil {
		return
	}
	heartbeat := time.NewTicker(heartbeatInterval)
	defer heartbeat.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := w.Write([]byte(": heartbeat\n\n")); err != nil {
				return
			}
			flusher.Flush()
		case e := <-live:
			if WriteSSE(w, e) != nil {
				return
			}
		}
	}
}

// WriteSSE writes e as one server-sent-event frame, "data: <json>" and a
// blank line, and flushes w when it is an http.Flusher, so proxies and
// buffering clients see each frame as it is written.
func WriteSSE(w io.Writer, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(append([]byte("data: "), data...), '\n', '\n')); err != nil {
		return err
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}
