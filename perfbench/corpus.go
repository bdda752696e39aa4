package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"circ/internal/benchapps"
)

// expectedJSON is the hand-written known answer for every (thread,
// global) pair of the corpus, keyed by program name then "Thread/global".
//
//go:embed expected.json
var expectedJSON []byte

// examplePrograms are the shipped example programs the corpus includes,
// read from the checkout so the benchmark checks the files users run.
var examplePrograms = []string{"pointer.mn", "racy.mn", "splitphase.mn", "testandset.mn"}

// loadCorpus returns every distinct paper model once, in a fixed order:
// the Table 1 sources, the Section 6 buggy variants, the false-positive
// idiom suite, the whole-application model, and the example programs.
// Two entries are the same model when their sources agree once comments
// and whitespace are dropped; the first name wins.
func loadCorpus(root string) ([]program, error) {
	var answers map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &answers); err != nil {
		return nil, fmt.Errorf("expected.json: %v", err)
	}
	type entry struct{ name, src string }
	var all []entry
	for _, a := range benchapps.Table1() {
		all = append(all, entry{"table1/" + a.Key(), a.Source})
	}
	for _, a := range benchapps.Section6Races() {
		all = append(all, entry{"section6/" + a.Key(), a.Source})
	}
	for _, a := range benchapps.FalsePositiveSuite() {
		all = append(all, entry{"idioms/" + slug(a.Idiom), a.Source})
	}
	all = append(all, entry{"appmodel", benchapps.AppModel})
	for _, f := range examplePrograms {
		src, err := os.ReadFile(filepath.Join(root, "examples", "programs", f))
		if err != nil {
			return nil, err
		}
		all = append(all, entry{"programs/" + strings.TrimSuffix(f, ".mn"), string(src)})
	}
	seen := map[string]bool{}
	var out []program
	for _, e := range all {
		key := normalize(e.src)
		if seen[key] {
			continue
		}
		seen[key] = true
		exp, ok := answers[e.name]
		if !ok {
			return nil, fmt.Errorf("expected.json has no answers for %s", e.name)
		}
		out = append(out, program{name: e.name, src: e.src, expect: exp})
	}
	if len(out) != len(answers) {
		return nil, fmt.Errorf("expected.json answers %d programs, the corpus has %d", len(answers), len(out))
	}
	return out, nil
}

// normalize drops // comments and all whitespace.
func normalize(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		b.WriteString(strings.Join(strings.Fields(line), ""))
	}
	return b.String()
}

func slug(s string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
			dash = false
		} else if !dash && b.Len() > 0 {
			b.WriteByte('-')
			dash = true
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}
