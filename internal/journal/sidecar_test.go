package journal

import (
	"strings"
	"testing"
)

func TestValidateTrace(t *testing.T) {
	good := `{
	 "traceEvents": [
	  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "reach.worker.00"}},
	  {"name": "smt.solve", "ph": "X", "ts": 1.5, "dur": 2.0, "pid": 1, "tid": 1,
	   "args": {"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736"}},
	  {"name": "steal", "ph": "i", "s": "t", "ts": 2.0, "dur": 0, "pid": 1, "tid": 3,
	   "args": {"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736"}}
	 ],
	 "displayTimeUnit": "ms",
	 "otherData": {"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "span_id": "00f067aa0ba902b7"}
	}`
	if n, err := ValidateTrace(strings.NewReader(good)); err != nil || n != 3 {
		t.Fatalf("ValidateTrace = %d, %v", n, err)
	}

	for name, bad := range map[string]string{
		"not json":      `[]`,
		"no events":     `{"displayTimeUnit": "ms"}`,
		"unknown phase": `{"traceEvents": [{"name": "x", "ph": "Q", "ts": 0, "dur": 0}]}`,
		"nameless":      `{"traceEvents": [{"ph": "X", "ts": 0, "dur": 0}]}`,
		"negative ts":   `{"traceEvents": [{"name": "x", "ph": "X", "ts": -1, "dur": 0}]}`,
		"unstamped event": `{
		 "traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": 0}],
		 "otherData": {"trace_id": "abc"}
		}`,
		"wrong trace id": `{
		 "traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": 0, "args": {"trace_id": "def"}}],
		 "otherData": {"trace_id": "abc"}
		}`,
	} {
		if _, err := ValidateTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
