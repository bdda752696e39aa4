package benchapps

// AppModel is a larger, whole-application-style model in the shape the
// paper describes for its nesC benchmarks: every thread runs a dispatch
// loop that nondeterministically fires an interrupt handler (while
// enabled), runs a posted task, or executes the application's main work —
// with several shared variables, each guarded by a different idiom:
//
//   - txBuf: guarded by the test-and-set state variable radioBusy,
//   - rxBuf: split-phase — the receive interrupt disables itself, writes,
//     and posts a task which writes and re-enables,
//   - stats: only ever accessed inside atomic sections,
//   - seqNo: guarded by ownership of the radio (same owner discipline as
//     txBuf, exercising two variables under one guard).
//
// All four are race-free; CheckAppModel in the tests verifies each.
const AppModel = `
global int txBuf;
global int rxBuf;
global int stats;
global int seqNo;
global int radioBusy;
global int rxIntDisabled;
global int rxTaskPosted;
global int taskRunning;

thread App {
  local int mine;
  while (1) {
    choose {
      // Send path: claim the radio, fill the transmit buffer, bump the
      // sequence number, release.
      atomic {
        mine = 0;
        if (radioBusy == 0) { radioBusy = 1; mine = 1; }
      }
      if (mine == 1) {
        txBuf = txBuf + 1;
        seqNo = seqNo + 1;
        atomic { stats = stats + 1; }
        radioBusy = 0;
      }
    } or {
      // Receive interrupt: fires only while enabled; disables itself,
      // writes the receive buffer, posts the processing task.
      atomic {
        mine = 0;
        if (rxIntDisabled == 0) { rxIntDisabled = 1; mine = 1; }
      }
      if (mine == 1) {
        rxBuf = rxBuf + 1;
        atomic { rxTaskPosted = 1; }
      }
    } or {
      // Receive task: tasks never preempt tasks; consumes the buffer and
      // re-enables the interrupt.
      atomic {
        mine = 0;
        if (rxTaskPosted == 1) {
          if (taskRunning == 0) { taskRunning = 1; mine = 1; }
        }
      }
      if (mine == 1) {
        rxBuf = 0;
        atomic { rxTaskPosted = 0; taskRunning = 0; rxIntDisabled = 0; }
      }
    } or {
      // Bookkeeping: purely atomic accesses.
      atomic { stats = stats + 2; }
    }
  }
}
`

// AppModelVars lists the protected variables of AppModel and whether each
// is race-free.
func AppModelVars() []struct {
	Name string
	Safe bool
} {
	return []struct {
		Name string
		Safe bool
	}{
		{"txBuf", true},
		{"seqNo", true},
		{"rxBuf", true},
		{"stats", true},
	}
}
