package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// program is one input of a pass: its source and the known verdict of
// every (thread, global) pair, keyed "Thread/global".
type program struct {
	name   string
	src    string
	expect map[string]string
}

// wideShape fixes the size of a generated program. The seed varies only
// names, constants, which templates carry the unprotected global, and
// statement order, so every seed asks the checker for the same work.
type wideShape struct {
	templates int // thread templates
	guarded   int // globals per template under its test-and-set flag
	atomic    int // globals per template accessed only inside atomic sections
	readOnly  int // globals per template that are only ever read
	racy      int // templates that also write one unprotected global
}

// Shapes of the generated workloads. wideProgram is the static-bound
// input: 12 templates of 16 globals each give 2328 (thread, global)
// pairs of which only the 2 racy ones reach the engine. smallProgram is
// the daemon's fresh job: one racy survivor, so each fresh job writes
// one certificate.
var (
	wideProgram  = wideShape{templates: 12, guarded: 5, atomic: 5, readOnly: 5, racy: 2}
	smallProgram = wideShape{templates: 3, guarded: 2, atomic: 1, readOnly: 1, racy: 1}
)

// genWide builds one program of the given shape. Every pair's verdict is
// known by construction: a template never touches another template's
// globals (thread-local), its guarded globals are written only while it
// owns its flag (flag-guarded), its atomic globals only inside atomic
// sections, its read-only globals are never written, and its flag is
// claimed inside an atomic section and released only by the owner. The
// one unprotected global of a racy template is written outside any
// synchronisation, so two copies of that template race on it; it adds
// racyConst, which callers vary to make a program's store key new.
func genWide(r *rand.Rand, name string, sh wideShape, racyConst int) program {
	p := program{name: name, expect: map[string]string{}}
	racy := map[int]bool{}
	for _, t := range r.Perm(sh.templates)[:sh.racy] {
		racy[t] = true
	}
	var globals []string
	type tmpl struct {
		name          string
		flag          string
		guarded, atom []string
		ro            []string
		unprotected   string
	}
	ts := make([]tmpl, sh.templates)
	for i := range ts {
		pre := fmt.Sprintf("m%d%c", i, 'a'+rune(r.Intn(26)))
		t := tmpl{name: fmt.Sprintf("T%d%c", i, 'A'+rune(r.Intn(26))), flag: pre + "_busy"}
		for j := 0; j < sh.guarded; j++ {
			t.guarded = append(t.guarded, fmt.Sprintf("%s_buf%d", pre, j))
		}
		for j := 0; j < sh.atomic; j++ {
			t.atom = append(t.atom, fmt.Sprintf("%s_cnt%d", pre, j))
		}
		for j := 0; j < sh.readOnly; j++ {
			t.ro = append(t.ro, fmt.Sprintf("%s_cfg%d", pre, j))
		}
		if racy[i] {
			t.unprotected = pre + "_stat"
		}
		globals = append(globals, t.flag)
		globals = append(globals, t.guarded...)
		globals = append(globals, t.atom...)
		globals = append(globals, t.ro...)
		if t.unprotected != "" {
			globals = append(globals, t.unprotected)
		}
		ts[i] = t
	}
	r.Shuffle(len(globals), func(i, j int) { globals[i], globals[j] = globals[j], globals[i] })

	var b strings.Builder
	for _, g := range globals {
		fmt.Fprintf(&b, "global int %s;\n", g)
	}
	for _, t := range ts {
		inc := func(v string) string { return fmt.Sprintf("%s = %s + %d;", v, v, 1+r.Intn(9)) }
		var branches []string
		var body []string
		for _, g := range shuffled(r, t.guarded) {
			body = append(body, "        "+inc(g))
		}
		branches = append(branches, fmt.Sprintf(`      atomic {
        old = %[1]s;
        if (%[1]s == 0) { %[1]s = 1; }
      }
      if (old == 0) {
%[2]s
        %[1]s = 0;
      }`, t.flag, strings.Join(body, "\n")))
		body = body[:0]
		for _, g := range shuffled(r, t.atom) {
			body = append(body, "        "+inc(g))
		}
		branches = append(branches, "      atomic {\n"+strings.Join(body, "\n")+"\n      }")
		body = body[:0]
		for _, g := range shuffled(r, t.ro) {
			body = append(body, fmt.Sprintf("      v = v + %s;", g))
		}
		branches = append(branches, strings.Join(body, "\n"))
		if t.unprotected != "" {
			branches = append(branches, fmt.Sprintf("      %[1]s = %[1]s + %[2]d;", t.unprotected, racyConst))
		}
		branches = shuffled(r, branches)
		fmt.Fprintf(&b, "\nthread %s {\n  local int old;\n  local int v;\n  while (1) {\n    choose {\n%s\n    }\n  }\n}\n",
			t.name, strings.Join(branches, "\n    } or {\n"))
		for _, g := range globals {
			p.expect[t.name+"/"+g] = "safe"
		}
		if t.unprotected != "" {
			p.expect[t.name+"/"+t.unprotected] = "unsafe"
		}
	}
	p.src = b.String()
	return p
}

// genSplitPhase builds a variant of surge's split-phase interrupt model
// (Table 1, rec_ptr) whose two writes add the given constants. The
// constants change the certificate-store key but not the verdicts: all
// four pairs are race-free, and rec_ptr survives triage, so a fresh
// submission runs inference and stores a Safe certificate that a
// resubmission re-proves with VerifyCertificate.
func genSplitPhase(name string, c1, c2 int) program {
	src := fmt.Sprintf(`global int rec_ptr;
global int intDisabled;
global int taskPosted;
global int taskRunning;

thread Dev {
  local int mine;
  while (1) {
    choose {
      atomic {
        mine = 0;
        if (intDisabled == 0) { intDisabled = 1; mine = 1; }
      }
      if (mine == 1) {
        rec_ptr = rec_ptr + %d;
        atomic { taskPosted = 1; }
      }
    } or {
      atomic {
        mine = 0;
        if (taskPosted == 1) {
          if (taskRunning == 0) { taskRunning = 1; mine = 1; }
        }
      }
      if (mine == 1) {
        rec_ptr = rec_ptr + %d;
        atomic { taskPosted = 0; taskRunning = 0; intDisabled = 0; }
      }
    }
  }
}
`, c1, c2)
	expect := map[string]string{}
	for _, g := range []string{"rec_ptr", "intDisabled", "taskPosted", "taskRunning"} {
		expect["Dev/"+g] = "safe"
	}
	return program{name: name, src: src, expect: expect}
}

func shuffled(r *rand.Rand, in []string) []string {
	out := append([]string(nil), in...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
