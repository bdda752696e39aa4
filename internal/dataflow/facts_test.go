package dataflow

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"circ/internal/benchapps"
	"circ/internal/cfa"
	"circ/internal/lang"
)

// refTriage is the per-pair triage ThreadFacts replaces: one pass over
// the reachable edges for g alone, then a fresh flag-guard analysis.
func refTriage(c *cfa.CFA, g string) (Discharge, bool) {
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
		return Discharge{
			Reason: ReasonThreadLocal,
			Detail: fmt.Sprintf("no reachable edge of %s accesses %s", c.Name, g),
		}, true
	case writes == 0:
		return Discharge{
			Reason: ReasonReadOnly,
			Detail: fmt.Sprintf("%s reads %s on %d edge(s) but never writes it", c.Name, g, reads),
		}, true
	case uncovered == 0:
		return Discharge{
			Reason: ReasonAtomicCovered,
			Detail: fmt.Sprintf("all %d access(es) to %s leave atomic locations", reads+writes, g),
		}, true
	}
	return FlagGuard(c).Discharge(g)
}

// wideSource is a program shaped like the wide benchmark workload: thread
// templates that each own a busy flag, globals written under it, globals
// written only atomically, read-only globals, and, on the first template,
// one unprotected global.
func wideSource(templates int) string {
	var globals []string
	var threads strings.Builder
	for i := 0; i < templates; i++ {
		flag := fmt.Sprintf("m%d_busy", i)
		buf := []string{fmt.Sprintf("m%d_buf0", i), fmt.Sprintf("m%d_buf1", i)}
		cnt := []string{fmt.Sprintf("m%d_cnt0", i), fmt.Sprintf("m%d_cnt1", i)}
		cfg := []string{fmt.Sprintf("m%d_cfg0", i), fmt.Sprintf("m%d_cfg1", i)}
		globals = append(append(append(append(globals, flag), buf...), cnt...), cfg...)
		racy := ""
		if i == 0 {
			globals = append(globals, "m0_stat")
			racy = "\n    } or {\n      m0_stat = m0_stat + 1;"
		}
		fmt.Fprintf(&threads, `
thread T%[1]d {
  local int old;
  local int v;
  while (1) {
    choose {
      atomic {
        old = %[2]s;
        if (%[2]s == 0) { %[2]s = 1; }
      }
      if (old == 0) {
        %[3]s = %[3]s + 1;
        %[4]s = %[4]s + 2;
        %[2]s = 0;
      }
    } or {
      atomic {
        %[5]s = %[5]s + 3;
        %[6]s = %[6]s + 4;
      }
    } or {
      v = v + %[7]s;
      v = v + %[8]s;%[9]s
    }
  }
}
`, i, flag, buf[0], buf[1], cnt[0], cnt[1], cfg[0], cfg[1], racy)
	}
	var b strings.Builder
	for _, g := range globals {
		fmt.Fprintf(&b, "global int %s;\n", g)
	}
	return b.String() + threads.String()
}

// TestThreadFactsTriageMatchesPerPair checks that triage read from one
// ThreadFacts per thread returns, for every (thread, global) pair of the
// benchmark models, the example programs and a wide-shaped program, the
// same discharge (reason and detail) as the per-pair reference. Each
// thread's globals are triaged from several goroutines sharing its facts,
// as batch workers do.
func TestThreadFactsTriageMatchesPerPair(t *testing.T) {
	srcs := map[string]string{"appmodel": benchapps.AppModel, "wide": wideSource(4)}
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
				want, wantOK := refTriage(c, gd.Name)
				if got[i] != want || ok[i] != wantOK {
					t.Errorf("%s %s/%s: ThreadFacts (%+v, %v), per pair (%+v, %v)",
						name, th.Name, gd.Name, got[i], ok[i], want, wantOK)
				}
				pairs++
				if wantOK && want.Reason == ReasonFlagGuarded {
					flagGuarded++
				}
			}
		}
	}
	if flagGuarded == 0 {
		t.Fatalf("no flag-guarded discharge among %d pairs: the lazy flag-guard path went untested", pairs)
	}
}
