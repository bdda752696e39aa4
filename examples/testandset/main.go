// Testandset reproduces the paper's worked example end to end (Section 2,
// Figures 1-5): it prints the thread's CFA (Figure 1b), narrates every
// CIRC iteration — abstract reachability, bisimulation-minimised context
// ACFAs (Figures 2-4), counterexample analysis with the trace formula
// (Figure 5) — and finally shows the inferred context model (Figure 1c)
// that proves race freedom for arbitrarily many threads.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"circ"
)

const src = `
global int x;
global int state;

thread Worker {
  local int old;
  while (1) {
    atomic {
      old = state;        // remember the state variable
      if (state == 0) { state = 1; }
    }
    if (old == 0) {       // only the winner of the test-and-set ...
      x = x + 1;          // ... may touch x
      state = 0;
    }
  }
}
`

func main() {
	prog, err := circ.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	c, err := prog.CFA("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Figure 1(b): control flow automaton of the thread ==")
	fmt.Println(c)

	fmt.Println("== Running CIRC (Figures 2-4: iteration narration) ==")
	rep, err := circ.Check(context.Background(), src, circ.WithTarget("", "x"),
		circ.WithLogger(circ.NarrationHandler(os.Stdout)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Figure 5: trace formula of the final spurious counterexample ==")
	for i, cl := range rep.TF {
		fmt.Printf("  clause %2d: %s\n", i, cl)
	}

	fmt.Printf("\n== Result: %s ==\n", rep.Verdict)
	fmt.Printf("predicates discovered by refinement: %v\n", rep.Preds)
	fmt.Println("\n== Figure 1(c): the inferred context model (final ACFA) ==")
	fmt.Print(rep.FinalACFA)
	fmt.Println("\nEach location is labelled with a region over the globals; edges havoc")
	fmt.Println("the listed variables; * marks atomic locations. A thread at the x-writing")
	fmt.Println("location keeps state != 0, which excludes every other thread: that is the")
	fmt.Println("test-and-set protocol, rediscovered automatically.")
}
