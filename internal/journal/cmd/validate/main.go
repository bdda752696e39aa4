// Command validate checks a JSONL inference journal (the output of
// circ -journal) against the event schema: known event types, required
// per-type fields, and strictly increasing per-case sequence numbers.
// It also validates the journal-adjacent flight-deck artifact: Chrome
// trace_event exports (-trace).
//
// Usage:
//
//	go run ./internal/journal/cmd/validate out.jsonl [more.jsonl ...]
//	circ ... -journal /dev/stdout | go run ./internal/journal/cmd/validate
//	go run ./internal/journal/cmd/validate -trace job.trace.json
//
// Exit status 0 when every file validates, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"circ/internal/journal"
)

func main() {
	asTrace := flag.Bool("trace", false, "validate Chrome trace_event JSON instead of a journal")
	flag.Parse()
	validate, unit := journal.Validate, "events"
	if *asTrace {
		validate, unit = journal.ValidateTrace, "trace events"
	}

	args := flag.Args()
	if len(args) == 0 {
		n, err := validate(os.Stdin)
		if !report("stdin", unit, n, err) {
			os.Exit(1)
		}
		return
	}
	bad := false
	for _, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "validate:", err)
			os.Exit(1)
		}
		n, err := validate(f)
		f.Close()
		if !report(path, unit, n, err) {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

var _ func(io.Reader) (int, error) = journal.ValidateTrace // both validators share this shape

func report(name, unit string, n int, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "validate: %s: %v (after %d valid %s)\n", name, err, n, unit)
		return false
	}
	fmt.Printf("%s: %d %s, schema OK\n", name, n, unit)
	return true
}
