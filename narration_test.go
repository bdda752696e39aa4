package circ_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"testing"

	"circ"
	"circ/internal/telemetry"
)

// TestNarrationHandler: the exported NarrationHandler, all a module
// outside this one can reach, narrates test-and-set byte for byte as the
// internal telemetry handler does.
func TestNarrationHandler(t *testing.T) {
	narrate := func(h func(io.Writer) slog.Handler) []byte {
		var buf bytes.Buffer
		_, err := circ.NewChecker(circ.WithLogger(h(&buf)), circ.WithParallelism(1), circ.WithTriage(false)).
			CheckSource(context.Background(), circ.TasSrc, "", "x")
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := narrate(circ.NarrationHandler)
	want := narrate(func(w io.Writer) slog.Handler { return telemetry.NewNarrationHandler(w) })
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("NarrationHandler wrote\n%s\nwant\n%s", got, want)
	}
}
