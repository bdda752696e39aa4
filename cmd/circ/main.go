// Command circ checks a MiniNesC program for data races using the CIRC
// context-inference algorithm, optionally comparing against the lockset
// and flow-based baselines.
//
// Usage:
//
//	circ -var x [-thread T] [-omega] [-k N] [-v] [-all] [-verify] [-baseline B] prog.mn
//
// Static pre-analysis flags: -triage=off disables the triage stage
// (read-only / atomic-covered / thread-local / flag-guarded discharges),
// -slice=off disables per-target cone-of-influence slicing, and
// -seed-preds=off disables seeding CIRC's initial predicates from the
// flag-guard analysis; all default to on.
// -baseline flowcheck|lockset|flagguard|all runs the named baseline
// analyzer(s) side-by-side with CIRC and prints a comparison table of
// warnings versus proved verdicts.
//
// Observability flags: -trace out.json writes a Chrome trace_event
// trace — the analysis span tree (open in chrome://tracing or Perfetto),
// -metrics out.json writes the checker's metrics snapshot (the same one
// expvar serves), -journal out.jsonl writes the structured inference
// journal (one JSON event per line), -report out.html renders a
// self-contained HTML race report, and -pprof addr serves net/http/pprof plus expvar (live metrics at
// /debug/vars) and the live journal endpoints (/debug/circ/progress,
// /debug/circ/events) for the duration of the run.
//
// Exit status: 0 when race freedom is proved, 1 when a genuine race is
// found, 2 on "unknown", 3 on usage or input errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"circ"
	"circ/internal/journal"
	"circ/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// onoff is a boolean flag.Value that also accepts the spellings "on" and
// "off", so the documented -triage=off / -slice=off escape hatches parse.
type onoff bool

func (o *onoff) String() string {
	if o == nil || bool(*o) {
		return "on"
	}
	return "off"
}

func (o *onoff) Set(s string) error {
	switch strings.ToLower(s) {
	case "on", "true", "1", "t", "yes":
		*o = true
	case "off", "false", "0", "f", "no":
		*o = false
	default:
		return fmt.Errorf("invalid value %q (want on or off)", s)
	}
	return nil
}

// IsBoolFlag lets a bare -triage mean -triage=on.
func (o *onoff) IsBoolFlag() bool { return true }

// cliErr prints an error without duplicating the "circ:" prefix that
// library errors already carry.
func cliErr(err error) {
	msg := err.Error()
	if strings.HasPrefix(msg, "circ:") {
		fmt.Fprintln(os.Stderr, msg)
		return
	}
	fmt.Fprintln(os.Stderr, "circ:", msg)
}

func run(args []string) int {
	fs := flag.NewFlagSet("circ", flag.ContinueOnError)
	var (
		varName   = fs.String("var", "", "global variable to check for races (required)")
		thread    = fs.String("thread", "", "thread template (default: the single thread)")
		omega     = fs.Bool("omega", false, "use the omega-CIRC variant (Section 5)")
		k         = fs.Int("k", 1, "initial counter parameter")
		verbose   = fs.Bool("v", false, "narrate every CIRC iteration")
		all       = fs.Bool("all", false, "check every global variable (ignores -var)")
		dotOut    = fs.String("dot", "", "write the thread CFA and (on safe) the inferred context ACFA as dot files with this prefix")
		verify    = fs.Bool("verify", false, "independently re-check a safe verdict's certificate (Algorithm Check)")
		traceOut  = fs.String("trace", "", "write a Chrome trace_event JSON span trace to this file")
		metrics   = fs.String("metrics", "", "write the checker's JSON metrics snapshot to this file")
		jsonlOut  = fs.String("journal", "", "write the structured inference journal (JSONL) to this file")
		htmlOut   = fs.String("report", "", "write a self-contained HTML race report to this file")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof, expvar, and /debug/circ on this address (e.g. localhost:6060)")
		baseline  = fs.String("baseline", "", "run baseline analyzers side-by-side and print a comparison table: flowcheck, lockset, flagguard, or all")
	)
	triage, slice, seedPreds := onoff(true), onoff(true), onoff(true)
	fs.Var(&triage, "triage", "static triage stage that discharges pairs before CIRC runs: on or off")
	fs.Var(&slice, "slice", "per-target cone-of-influence slicing of the thread CFA: on or off")
	fs.Var(&seedPreds, "seed-preds", "seed CIRC's initial predicates from the flag-guard analysis: on or off")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: circ -var x [flags] prog.mn\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if fs.NArg() != 1 || (*varName == "" && !*all) {
		fs.Usage()
		return 3
	}
	if *k > circ.MaxK {
		fmt.Fprintf(os.Stderr, "circ: -k %d: exceeds the largest counter parameter, %d\n", *k, circ.MaxK)
		return 3
	}
	switch *baseline {
	case "", "flowcheck", "lockset", "flagguard", "all":
	default:
		fmt.Fprintf(os.Stderr, "circ: -baseline %q: want flowcheck, lockset, flagguard, or all\n", *baseline)
		return 3
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		cliErr(err)
		return 3
	}

	prog, err := circ.Parse(string(src))
	if err != nil {
		cliErr(err)
		return 3
	}
	opts := []circ.Option{
		circ.WithK(*k), circ.WithOmega(*omega),
		circ.WithTriage(bool(triage)), circ.WithSlicing(bool(slice)),
		circ.WithSeedPredicates(bool(seedPreds)),
	}
	if *verbose {
		opts = append(opts, circ.WithLogger(circ.NarrationHandler(os.Stderr)))
	}
	var tracer *circ.Tracer
	if *traceOut != "" {
		tracer = circ.NewTracer()
		opts = append(opts, circ.WithTracer(tracer))
	}
	// The flight recorder backs -journal, -report, and the live /debug/circ
	// endpoints; it is created whenever any of the three wants it.
	var jr *circ.Journal
	if *jsonlOut != "" || *htmlOut != "" || *pprofAddr != "" {
		jr = circ.NewJournal()
		opts = append(opts, circ.WithJournal(jr))
	}
	// One checker for the whole invocation: with -all, SMT answers
	// discharged for one variable are reused for the next.
	chk := circ.NewChecker(opts...)
	if *pprofAddr != "" {
		telemetry.PublishExpvar("circ", chk.Snapshot)
		circ.MountJournal(http.DefaultServeMux, jr)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "circ: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof+expvar+journal server on http://%s/debug/pprof/\n", *pprofAddr)
	}
	vars := []string{*varName}
	if *all {
		vars = prog.Globals()
	}
	worst := 0
	var sections []journal.CaseSection
	for _, v := range vars {
		code, sec := checkOne(context.Background(), chk, prog, string(src), v, *thread, *verbose, *dotOut, *verify)
		if code > worst {
			worst = code
		}
		sections = append(sections, sec)
	}
	if *baseline != "" {
		printBaselineComparison(string(src), *thread, *baseline, vars, sections)
	}
	if *traceOut != "" {
		if err := tracer.ExportFile(*traceOut); err != nil {
			cliErr(err)
			return 3
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans)\n", *traceOut, tracer.NumSpans())
	}
	if *metrics != "" {
		data, err := json.MarshalIndent(chk.Snapshot(), "", "  ")
		if err != nil {
			cliErr(err)
			return 3
		}
		if err := os.WriteFile(*metrics, append(data, '\n'), 0o644); err != nil {
			cliErr(err)
			return 3
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metrics)
	}
	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		if err == nil {
			err = jr.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			cliErr(err)
			return 3
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events)\n", *jsonlOut, jr.Len())
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err == nil {
			err = journal.RenderHTML(f, journal.HTMLData{
				Title:   "circ race report: " + fs.Arg(0),
				Summary: circ.VerdictSummary(sections),
				Cases:   sections,
				Events:  jr.Events(),
			})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			cliErr(err)
			return 3
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *htmlOut)
	}
	return worst
}

// printBaselineComparison runs the requested baseline analyzers once and
// prints their warnings next to circ's proved verdicts, one row per
// checked variable. A baseline warning on a circ-proved-safe variable is
// a false positive of the baseline; a silent baseline on a circ-proved
// race is a miss.
func printBaselineComparison(src, thread, which string, vars []string, sections []journal.CaseSection) {
	type column struct {
		name string
		racy func(v string) bool
	}
	var cols []column
	if which == "flowcheck" || which == "all" {
		fc, err := circ.Flowcheck(src, thread)
		if err != nil {
			fmt.Fprintln(os.Stderr, "circ: flowcheck baseline:", err)
		} else {
			cols = append(cols, column{"flowcheck", fc.Racy})
		}
	}
	if which == "lockset" || which == "all" {
		ls, err := circ.Lockset(src, thread, 3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "circ: lockset baseline:", err)
		} else {
			cols = append(cols, column{"lockset", ls.Racy})
		}
	}
	if which == "flagguard" || which == "all" {
		fg, err := circ.Flagguard(src, thread)
		if err != nil {
			fmt.Fprintln(os.Stderr, "circ: flagguard baseline:", err)
		} else {
			cols = append(cols, column{"flagguard", fg.Racy})
		}
	}
	if len(cols) == 0 {
		return
	}
	fmt.Println("--- baseline comparison (warnings vs proved verdicts) ---")
	fmt.Printf("%-24s %-10s", "variable", "circ")
	for _, c := range cols {
		fmt.Printf(" %-12s", c.name)
	}
	fmt.Println()
	falsePos := make([]int, len(cols))
	missed := make([]int, len(cols))
	for i, v := range vars {
		verdict := sections[i].Verdict
		fmt.Printf("%-24s %-10s", v, verdict)
		for j, c := range cols {
			cell := "no warning"
			if c.racy(v) {
				cell = "warns"
				if verdict == "safe" {
					falsePos[j]++
				}
			} else if verdict == "unsafe" {
				missed[j]++
			}
			fmt.Printf(" %-12s", cell)
		}
		fmt.Println()
	}
	for j, c := range cols {
		note := ""
		if c.name == "flagguard" {
			// The static pipeline is sound-by-construction: a "warns" cell
			// is incompleteness CIRC resolves, never a false alarm.
			note = " (sound: warnings are residue for CIRC, not false alarms)"
		}
		fmt.Printf("%s: %d false positive(s) on circ-proved-safe variables, %d missed race(s)%s\n",
			c.name, falsePos[j], missed[j], note)
	}
}

func checkOne(ctx context.Context, chk *circ.Checker, prog *circ.Program, src, varName, thread string, verbose bool, dotOut string, verify bool) (int, journal.CaseSection) {
	rep, err := chk.Check(ctx, prog, thread, varName)
	sec := prog.Section(circ.TargetReport{Target: circ.Target{Thread: thread, Variable: varName}, Report: rep, Err: err})
	if err != nil {
		cliErr(err)
		return 3, sec
	}

	switch rep.Verdict {
	case circ.Safe:
		if rep.Triage != "" {
			// Statically discharged: there is no context model or
			// certificate — the provenance is the discharge rule itself.
			fmt.Printf("SAFE: no races on %q — discharged statically (triage: %s)\n", varName, rep.Triage)
			if verify {
				fmt.Println("certificate check skipped: triage verdicts carry no certificate")
			}
			break
		}
		fmt.Printf("SAFE: no races on %q (predicates: %d, context ACFA: %d locations, k=%d, rounds=%d)\n",
			varName, len(rep.Preds), rep.FinalACFA.NumLocs(), rep.K, rep.Rounds)
		for _, p := range rep.Preds {
			fmt.Printf("  predicate: %s\n", p)
		}
		if verbose {
			fmt.Printf("inferred context model:\n%s", rep.FinalACFA)
		}
		if verify {
			err := chk.VerifyCertificate(ctx, prog, thread, varName, rep)
			var cerr *circ.CertificateError
			switch {
			case err == nil:
				fmt.Println("certificate independently verified (Algorithm Check)")
			case errors.As(err, &cerr):
				fmt.Printf("CERTIFICATE REJECTED: %s check failed: %s\n", cerr.Obligation, cerr.Detail)
				return 2, sec
			default:
				fmt.Fprintln(os.Stderr, "circ: certificate check:", err)
				return 3, sec
			}
		}
	case circ.Unsafe:
		fmt.Printf("UNSAFE: race on %q; interleaved trace (T0 = main):\n", varName)
		fmt.Print(sec.Trace)
	default:
		fmt.Printf("UNKNOWN on %q: %s\n", varName, rep.Reason)
	}
	if dotOut != "" {
		// Export the thread CFA alongside the context model: the final
		// (proved-sound) ACFA on safe, the last abstraction in force on
		// unsafe/unknown. A failed write is a real CLI failure, not
		// something to swallow.
		write := func(path, data string) bool {
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				cliErr(err)
				return false
			}
			return true
		}
		c, err := prog.CFA(thread)
		if err == nil && !write(dotOut+".cfa.dot", c.Dot()) {
			return 3, sec
		}
		acfaDump := rep.FinalACFA
		if acfaDump == nil {
			acfaDump = rep.LastACFA
		}
		if acfaDump != nil && !write(dotOut+"."+varName+".acfa.dot", acfaDump.Dot()) {
			return 3, sec
		}
	}

	switch rep.Verdict {
	case circ.Safe:
		return 0, sec
	case circ.Unsafe:
		return 1, sec
	}
	return 2, sec
}
