package dataflow

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"circ/internal/benchapps"
	"circ/internal/cfa"
	"circ/internal/lang"
)

// refTriage is the per-pair triage ThreadFacts replaces: one pass over
// the reachable edges for g alone, then a fresh flag-guard analysis. It
// returns the discharge's reason and detail text.
func refTriage(c *cfa.CFA, g string) (reason, detail string, ok bool) {
	reach := c.ReachableLocs()
	var reads, writes, uncovered int
	for _, e := range c.Edges {
		if !reach[e.Src] {
			continue
		}
		w := e.Writes() == g
		r := e.Reads()[g]
		if !w && !r {
			continue
		}
		if w {
			writes++
		}
		if r {
			reads++
		}
		if !c.IsAtomic(e.Src) {
			uncovered++
		}
	}
	switch {
	case reads == 0 && writes == 0:
		return ReasonThreadLocal, fmt.Sprintf("no reachable edge of %s accesses %s", c.Name, g), true
	case writes == 0:
		return ReasonReadOnly, fmt.Sprintf("%s reads %s on %d edge(s) but never writes it", c.Name, g, reads), true
	case uncovered == 0:
		return ReasonAtomicCovered, fmt.Sprintf("all %d access(es) to %s leave atomic locations", reads+writes, g), true
	}
	d, ok := FlagGuard(c).Discharge(g)
	return d.Reason, d.Detail(), ok
}

// TestThreadFactsTriageMatchesPerPair checks that triage read from one
// ThreadFacts per thread returns, for every (thread, global) pair of the
// benchmark models, the example programs and a wide-shaped program, the
// same discharge (reason and detail) as the per-pair reference. Each
// thread's globals are triaged from several goroutines sharing its facts,
// as batch workers do.
func TestThreadFactsTriageMatchesPerPair(t *testing.T) {
	srcs := map[string]string{"appmodel": benchapps.AppModel, "wide": benchapps.WideSource(4)}
	apps := append(append(benchapps.Table1(), benchapps.Section6Races()...), benchapps.FalsePositiveSuite()...)
	for _, a := range apps {
		srcs[a.Key()] = a.Source
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.mn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs (%v)", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}

	pairs, flagGuarded := 0, 0
	for name, src := range srcs {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, th := range p.Threads {
			c, err := cfa.Build(p, th.Name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			facts := NewThreadFacts(c)
			got := make([]Discharge, len(p.Globals))
			ok := make([]bool, len(p.Globals))
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(p.Globals); i += 4 {
						got[i], ok[i] = facts.Triage(p.Globals[i].Name)
					}
				}(w)
			}
			wg.Wait()
			for i, gd := range p.Globals {
				reason, detail, wantOK := refTriage(c, gd.Name)
				if got[i].Reason != reason || got[i].Detail() != detail || ok[i] != wantOK {
					t.Errorf("%s %s/%s: ThreadFacts (%s: %q, %v), per pair (%s: %q, %v)",
						name, th.Name, gd.Name, got[i].Reason, got[i].Detail(), ok[i], reason, detail, wantOK)
				}
				pairs++
				if wantOK && reason == ReasonFlagGuarded {
					flagGuarded++
				}
			}
		}
	}
	if flagGuarded == 0 {
		t.Fatalf("no flag-guarded discharge among %d pairs: the lazy flag-guard path went untested", pairs)
	}
}
