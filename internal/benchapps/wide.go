package benchapps

import (
	"fmt"
	"strings"
)

// WideSource is a program shaped like the wide benchmark workload: thread
// templates that each own a busy flag, globals written under it, globals
// written only atomically, read-only globals, and, on the first template,
// one unprotected global. A template's code does not depend on how many
// templates the program has; only the program's globals grow with it.
func WideSource(templates int) string {
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
