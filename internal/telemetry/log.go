package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
)

// NarrationHandler is a slog.Handler that renders records as the classic
// circ iteration narration: one "msg key=val ..." line per record, with
// multi-line string attributes (ARG and ACFA dumps, race traces) printed
// as indented blocks under the line. Attach it with the checker's
// WithLogger option; structured consumers attach their own handler
// instead.
type NarrationHandler struct {
	w     io.Writer
	mu    *sync.Mutex
	attrs []slog.Attr
}

// NewNarrationHandler returns a handler narrating to w.
func NewNarrationHandler(w io.Writer) *NarrationHandler {
	return &NarrationHandler{w: w, mu: &sync.Mutex{}}
}

// NarrationLogger returns a logger narrating to w, or nil for a nil w.
func NarrationLogger(w io.Writer) *slog.Logger {
	if w == nil {
		return nil
	}
	return slog.New(NewNarrationHandler(w))
}

// Enabled reports true for every level: narration verbosity is decided by
// whether a logger is configured at all.
func (h *NarrationHandler) Enabled(context.Context, slog.Level) bool { return true }

// Handle renders one record.
func (h *NarrationHandler) Handle(_ context.Context, r slog.Record) error {
	var line strings.Builder
	line.WriteString(r.Message)
	var blocks []string
	emit := func(a slog.Attr) {
		v := a.Value.Resolve()
		if v.Kind() == slog.KindString && strings.Contains(v.String(), "\n") {
			blocks = append(blocks, v.String())
			return
		}
		fmt.Fprintf(&line, " %s=%v", a.Key, v.Any())
	}
	for _, a := range h.attrs {
		emit(a)
	}
	r.Attrs(func(a slog.Attr) bool {
		emit(a)
		return true
	})
	line.WriteString("\n")
	for _, b := range blocks {
		for _, l := range strings.Split(strings.TrimRight(b, "\n"), "\n") {
			line.WriteString("      " + l + "\n")
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := io.WriteString(h.w, line.String())
	return err
}

// WithAttrs returns a handler that prepends attrs to every record.
func (h *NarrationHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &NarrationHandler{w: h.w, mu: h.mu, attrs: append(append([]slog.Attr(nil), h.attrs...), attrs...)}
}

// WithGroup returns the handler unchanged: narration output is flat.
func (h *NarrationHandler) WithGroup(string) slog.Handler { return h }
