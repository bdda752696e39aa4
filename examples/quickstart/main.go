// Quickstart: prove race freedom of the paper's Figure 1 test-and-set
// program with one call, then break it and get a concrete race trace.
// Every Report embeds a telemetry snapshot; the end of main prints it.
package main

import (
	"context"
	"fmt"
	"log"

	"circ"
)

const safeSrc = `
global int x;
global int state;

thread Worker {
  local int old;
  while (1) {
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
  }
}
`

const racySrc = `
global int x;

thread Worker {
  while (1) {
    x = x + 1;
  }
}
`

func main() {
	ctx := context.Background()
	chk := circ.NewChecker()

	// Prove the absence of races on x for arbitrarily many Worker threads.
	// The default pipeline discharges the test-and-set idiom statically:
	// the flag-guard analysis proves every unprotected access owned.
	rep, err := chk.CheckSource(ctx, safeSrc, "", "x")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test-and-set: %s\n", rep.Summary())

	// Run the inference engine itself (triage off) to see the paper's
	// CIRC loop discover predicates and a context model.
	engRep, err := circ.NewChecker(circ.WithTriage(false)).
		CheckSource(ctx, safeSrc, "", "x")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  engine run: %s\n", engRep.Verdict)
	fmt.Printf("  discovered predicates: %v\n", engRep.Preds)
	fmt.Printf("  inferred context model: %d locations, counter k=%d\n",
		engRep.FinalACFA.NumLocs(), engRep.K)

	// The unprotected variant yields a genuine interleaved race trace.
	rep, err = chk.CheckSource(ctx, racySrc, "", "x")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unprotected:  %s\n", rep.Verdict)
	fmt.Printf("  interleaved trace (T0 = main thread):\n%s", rep.Race)

	// The Checker's registry aggregates the counters of every analysis
	// above.
	fmt.Printf("\nprocess-wide totals:\n%s", chk.Metrics().Snapshot().String())
}
