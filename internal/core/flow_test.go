package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// denseFlowTable is the reference PFC look-up table: the runnables ×
// runnables bit matrix the watchdog kept before the sparse, paged
// flowTable. It lives only here, as the oracle of the differential
// tests, the same way legacySweep is kept as the sweep's reference.
type denseFlowTable struct {
	monitored  []uint64
	successors [][]uint64
}

func newDenseFlowTable(n int) *denseFlowTable {
	words := (n + 63) / 64
	t := &denseFlowTable{monitored: make([]uint64, words), successors: make([][]uint64, n)}
	for i := range t.successors {
		t.successors[i] = make([]uint64, words)
	}
	return t
}

func (t *denseFlowTable) clone() *denseFlowTable {
	nt := &denseFlowTable{monitored: append([]uint64(nil), t.monitored...), successors: make([][]uint64, len(t.successors))}
	for i := range t.successors {
		nt.successors[i] = append([]uint64(nil), t.successors[i]...)
	}
	return nt
}

func (t *denseFlowTable) setMonitored(rid runnable.ID) { t.monitored[rid>>6] |= 1 << (rid & 63) }

func (t *denseFlowTable) isMonitored(rid runnable.ID) bool {
	return t.monitored[rid>>6]&(1<<(rid&63)) != 0
}

func (t *denseFlowTable) addPair(pred, succ runnable.ID) {
	t.successors[pred][succ>>6] |= 1 << (succ & 63)
	t.setMonitored(pred)
	t.setMonitored(succ)
}

func (t *denseFlowTable) allowed(pred, succ runnable.ID) bool {
	return t.successors[pred][succ>>6]&(1<<(succ&63)) != 0
}

// flowModel builds a frozen model of len(sizes) tasks, task i hosting
// sizes[i] runnables. Runnables are added round-robin across tasks, so
// one table page holds predecessors of several tasks. It returns each
// task's runnables.
func flowModel(tb testing.TB, sizes []int) (*runnable.Model, [][]runnable.ID) {
	tb.Helper()
	m := runnable.NewModel()
	app, err := m.AddApp("flow", runnable.SafetyCritical)
	if err != nil {
		tb.Fatalf("AddApp: %v", err)
	}
	tids := make([]runnable.TaskID, len(sizes))
	for i := range sizes {
		if tids[i], err = m.AddTask(app, fmt.Sprintf("T%d", i), i+1); err != nil {
			tb.Fatalf("AddTask: %v", err)
		}
	}
	byTask := make([][]runnable.ID, len(sizes))
	for added := true; added; {
		added = false
		for i, size := range sizes {
			if len(byTask[i]) == size {
				continue
			}
			rid, err := m.AddRunnable(tids[i], fmt.Sprintf("T%d/r%d", i, len(byTask[i])), time.Millisecond, runnable.SafetyCritical)
			if err != nil {
				tb.Fatalf("AddRunnable: %v", err)
			}
			byTask[i] = append(byTask[i], rid)
			added = true
		}
	}
	if err := m.Freeze(); err != nil {
		tb.Fatalf("Freeze: %v", err)
	}
	return m, byTask
}

// flowOp is one random flow-table configuration call.
type flowOp struct {
	kind int // 0 MonitorFlow, 1 AddFlowPair, 2 AddFlowSequence
	rids []runnable.ID
}

// makeFlowOps draws random configuration calls over byTask: mostly
// same-task pairs and sequences, with self-loops, cross-task members and
// unknown identifiers mixed in, so rejected calls are exercised too.
func makeFlowOps(rng *rand.Rand, byTask [][]runnable.ID, n, count int) []flowOp {
	pick := func() runnable.ID {
		ts := byTask[rng.Intn(len(byTask))]
		return ts[rng.Intn(len(ts))]
	}
	ops := make([]flowOp, count)
	for i := range ops {
		ts := byTask[rng.Intn(len(byTask))]
		member := func() runnable.ID { return ts[rng.Intn(len(ts))] }
		switch r := rng.Intn(20); {
		case r < 3:
			ops[i] = flowOp{kind: 0, rids: []runnable.ID{pick()}}
		case r < 10:
			p := member()
			s := member()
			switch rng.Intn(8) {
			case 0:
				s = p // self-loop
			case 1:
				s = pick() // usually cross-task
			case 2:
				s = runnable.ID(n + rng.Intn(3)) // unknown
			}
			ops[i] = flowOp{kind: 1, rids: []runnable.ID{p, s}}
		default:
			seq := make([]runnable.ID, 2+rng.Intn(5))
			for j := range seq {
				seq[j] = member()
			}
			switch rng.Intn(6) {
			case 0:
				seq[1+rng.Intn(len(seq)-1)] = pick()
			case 1:
				seq[rng.Intn(len(seq))] = runnable.NoID
			}
			ops[i] = flowOp{kind: 2, rids: seq}
		}
	}
	return ops
}

// applyFlowOp runs op on w and, when w accepts it, on the reference ref,
// and reports whether it was accepted. It fails the test when w's
// verdict differs from the reference's.
func applyFlowOp(t *testing.T, w *Watchdog, ref *denseFlowTable, op flowOp) bool {
	t.Helper()
	valid := func(rid runnable.ID) bool { return uint(rid) < uint(len(w.hot)) }
	var err error
	ok := true
	switch op.kind {
	case 0:
		err = w.MonitorFlow(op.rids[0])
		ok = valid(op.rids[0])
	case 1:
		err = w.AddFlowPair(op.rids[0], op.rids[1])
	case 2:
		err = w.AddFlowSequence(op.rids...)
	}
	var pairs [][2]runnable.ID
	switch op.kind {
	case 1:
		pairs = [][2]runnable.ID{{op.rids[0], op.rids[1]}}
	case 2:
		for i, rid := range op.rids {
			pairs = append(pairs, [2]runnable.ID{rid, op.rids[(i+1)%len(op.rids)]})
		}
	}
	for _, p := range pairs {
		if !valid(p[0]) || !valid(p[1]) || w.taskOf[p[0]] != w.taskOf[p[1]] {
			ok = false
		}
	}
	if ok != (err == nil) {
		t.Fatalf("op %+v: err = %v, reference accepts = %v", op, err, ok)
	}
	if !ok {
		return false
	}
	if op.kind == 0 {
		ref.setMonitored(op.rids[0])
	}
	for _, p := range pairs {
		ref.addPair(p[0], p[1])
	}
	return true
}

// sameFlowTable fails the test unless ft and ref enrol the same
// runnables and allow the same pairs among all n runnables.
func sameFlowTable(t *testing.T, ft *flowTable, ref *denseFlowTable, n int, what string) {
	t.Helper()
	for p := runnable.ID(0); int(p) < n; p++ {
		if ft.isMonitored(p) != ref.isMonitored(p) {
			t.Fatalf("%s: isMonitored(%d) = %v, reference %v", what, p, ft.isMonitored(p), ref.isMonitored(p))
		}
		for s := runnable.ID(0); int(s) < n; s++ {
			if ft.allowed(p, s) != ref.allowed(p, s) {
				t.Fatalf("%s: allowed(%d,%d) = %v, reference %v", what, p, s, ft.allowed(p, s), ref.allowed(p, s))
			}
		}
	}
}

// TestSparseFlowTableMatchesDense applies random configuration calls to
// a watchdog and to the dense reference table, and requires the sparse
// table to answer every allowed/isMonitored query as the reference does
// — after every call, and for every earlier snapshot, which a
// copy-on-write edit must leave untouched.
func TestSparseFlowTableMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 1+rng.Intn(5))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(40)
		}
		m, byTask := flowModel(t, sizes)
		n := m.NumRunnables()
		w, err := New(Config{Model: m, Clock: sim.NewManualClock()})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ref := newDenseFlowTable(n)
		type snap struct {
			ft  *flowTable
			ref *denseFlowTable
		}
		var snaps []snap
		accepted := 0
		for i, op := range makeFlowOps(rng, byTask, n, 60) {
			if applyFlowOp(t, w, ref, op) {
				accepted++
			}
			if i%10 == 0 {
				snaps = append(snaps, snap{w.flow.Load(), ref.clone()})
			}
		}
		if accepted < 30 {
			t.Fatalf("seed %d: only %d of 60 calls accepted", seed, accepted)
		}
		sameFlowTable(t, w.flow.Load(), ref, n, fmt.Sprintf("seed %d", seed))
		for i, s := range snaps {
			sameFlowTable(t, s.ft, s.ref, n, fmt.Sprintf("seed %d snapshot %d", seed, i))
		}
	}
}

// flowPairFixture builds two identically configured watchdogs over m —
// one to replay records with FlowEventN, one with per-record FlowEvent —
// sharing one clock.
func flowPairFixture(tb testing.TB, m *runnable.Model, ops []flowOp) (*sim.ManualClock, [2]*Watchdog, [2]*collector) {
	tb.Helper()
	clock := sim.NewManualClock()
	var ws [2]*Watchdog
	var sinks [2]*collector
	for i := range ws {
		sinks[i] = &collector{}
		w, err := New(Config{Model: m, Clock: clock, Sink: sinks[i]})
		if err != nil {
			tb.Fatalf("New: %v", err)
		}
		for _, op := range ops {
			switch op.kind {
			case 0:
				_ = w.MonitorFlow(op.rids[0]) // rejected calls leave the table alone
			case 1:
				_ = w.AddFlowPair(op.rids[0], op.rids[1])
			case 2:
				_ = w.AddFlowSequence(op.rids...)
			}
		}
		ws[i] = w
	}
	return clock, ws, sinks
}

// replayFlowFrame feeds one frame's flow records to ws[0] through
// FlowEventN and to ws[1] one record at a time: out-of-range indices
// dropped, every other record through FlowEvent.
func replayFlowFrame(ws [2]*Watchdog, table []runnable.ID, idx []uint32) {
	ws[0].FlowEventN(table, idx)
	for _, i := range idx {
		if uint(i) < uint(len(table)) {
			ws[1].FlowEvent(table[i])
		}
	}
}

// sameFlowOutcome fails the test unless both watchdogs produced the same
// reports and state events, in the same order, and hold the same
// predecessor registers.
func sameFlowOutcome(tb testing.TB, ws [2]*Watchdog, sinks [2]*collector, what string) {
	tb.Helper()
	if !reflect.DeepEqual(sinks[0].faults, sinks[1].faults) {
		tb.Fatalf("%s: FlowEventN reports %+v\nFlowEvent reports %+v", what, sinks[0].faults, sinks[1].faults)
	}
	if !reflect.DeepEqual(sinks[0].states, sinks[1].states) {
		tb.Fatalf("%s: FlowEventN states %+v\nFlowEvent states %+v", what, sinks[0].states, sinks[1].states)
	}
	for tid := range ws[0].preds {
		if a, b := ws[0].preds[tid].last.Load(), ws[1].preds[tid].last.Load(); a != b {
			tb.Fatalf("%s: task %d predecessor = %d after FlowEventN, %d after FlowEvent", what, tid, a, b)
		}
	}
}

// TestFlowEventNMatchesFlowEvent replays random frames of flow records
// through FlowEventN and through per-record FlowEvent on two identically
// configured watchdogs. Frames mix legal walks along installed
// sequences with random records, several tasks, unenrolled runnables,
// self-loops and out-of-range indices and identifiers; cycles advance
// and tasks are cleared between frames.
func TestFlowEventNMatchesFlowEvent(t *testing.T) {
	flowErrors := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 1+rng.Intn(4))
		for i := range sizes {
			sizes[i] = 2 + rng.Intn(12)
		}
		m, byTask := flowModel(t, sizes)
		n := m.NumRunnables()
		// Enrol a prefix of each task in one sequence, so the rest stay
		// unenrolled, allow a self-loop on its first runnable, then add
		// random pairs on top.
		var ops []flowOp
		for _, ts := range byTask {
			ops = append(ops,
				flowOp{kind: 2, rids: ts[:1+len(ts)*3/4]},
				flowOp{kind: 1, rids: []runnable.ID{ts[0], ts[0]}})
		}
		ops = append(ops, makeFlowOps(rng, byTask, n, 6)...)
		clock, ws, sinks := flowPairFixture(t, m, ops)

		// A node's table: every runnable once, in random order, plus an
		// unknown identifier and NoID.
		table := make([]runnable.ID, 0, n+2)
		for _, i := range rng.Perm(n) {
			table = append(table, runnable.ID(i))
		}
		table = append(table, runnable.ID(n+1), runnable.NoID)
		slot := make(map[runnable.ID]uint32, len(table))
		for i, rid := range table {
			slot[rid] = uint32(i)
		}

		for frame := 0; frame < 300; frame++ {
			var idx []uint32
			for want := rng.Intn(48); len(idx) < want; {
				switch r := rng.Intn(10); {
				case r < 6: // a legal walk along one task's sequence
					ts := byTask[rng.Intn(len(byTask))]
					seq := ts[:1+len(ts)*3/4]
					start := rng.Intn(len(seq))
					for k := 0; k < 1+rng.Intn(2*len(seq)); k++ {
						idx = append(idx, slot[seq[(start+k)%len(seq)]])
					}
				case r < 9: // any table slot: unenrolled, unknown, illegal
					idx = append(idx, uint32(rng.Intn(len(table))))
				default: // out of the table's range
					idx = append(idx, uint32(len(table)+rng.Intn(3)), ^uint32(0))
				}
			}
			replayFlowFrame(ws, table, idx)
			sameFlowOutcome(t, ws, sinks, fmt.Sprintf("seed %d frame %d", seed, frame))
			switch rng.Intn(8) {
			case 0:
				clock.Advance(10 * time.Millisecond)
				ws[0].Cycle()
				ws[1].Cycle()
			case 1:
				tid := runnable.TaskID(rng.Intn(len(byTask)))
				if err := ws[0].ClearTask(tid); err != nil {
					t.Fatalf("ClearTask: %v", err)
				}
				if err := ws[1].ClearTask(tid); err != nil {
					t.Fatalf("ClearTask: %v", err)
				}
			}
		}
		flowErrors += len(sinks[0].faults)
	}
	if flowErrors < 100 {
		t.Fatalf("only %d program-flow errors raised; the replay checks too little", flowErrors)
	}
}

// TestFlowEventNMemo replays the frames that would expose a wrong pair
// memo in FlowEventN — a slot shared by two predecessors, an illegal
// successor right after a remembered legal one, and a table edit
// between two calls — and requires the per-record FlowEvent outcome and
// the expected number of program-flow errors.
func TestFlowEventNMemo(t *testing.T) {
	m, byTask := flowModel(t, []int{16})
	ts := byTask[0] // one task: runnables 0..15, so 0 and 8 share slot 0
	pair := func(p, s int) flowOp { return flowOp{kind: 1, rids: []runnable.ID{ts[p], ts[s]}} }
	monitor := func(r int) flowOp { return flowOp{kind: 0, rids: []runnable.ID{ts[r]}} }
	frame := func(rs ...int) []uint32 {
		idx := make([]uint32, len(rs))
		for i, r := range rs {
			idx[i] = uint32(r)
		}
		return idx
	}
	cases := []struct {
		name   string
		ops    []flowOp
		frames [][]uint32
		edit   flowOp // applied to both watchdogs after the first frame
		faults int
	}{{
		// 0→1 and 1→8 are allowed, 8→1 and 1→0 are not: 8→1 meets the
		// remembered 0→1 in slot 0, with the same successor.
		name:   "shared slot",
		ops:    []flowOp{pair(0, 1), pair(1, 8)},
		frames: [][]uint32{frame(0, 1, 8, 1, 8, 1, 0, 1)},
		faults: 3,
	}, {
		// 8→9 is allowed and 0→9 is not, alternating across one run.
		name:   "shared slot, other pair",
		ops:    []flowOp{pair(8, 9), pair(9, 0), pair(0, 8)},
		frames: [][]uint32{frame(8, 9, 0, 9, 0, 8, 9, 0, 9)},
		faults: 2,
	}, {
		// 0→2 comes right after the remembered 0→1.
		name:   "illegal after remembered",
		ops:    []flowOp{pair(0, 1), pair(1, 0), monitor(2)},
		frames: [][]uint32{frame(0, 1, 0, 1, 0, 2)},
		faults: 1,
	}, {
		// 0→2 is illegal in the first call and allowed in the second.
		name:   "table edit between calls",
		ops:    []flowOp{pair(0, 1), pair(1, 0), monitor(2)},
		frames: [][]uint32{frame(0, 1, 0, 2), frame(0, 2, 0, 1, 0, 2)},
		edit:   pair(0, 2),
		faults: 3, // 0→2, then 2→0 joining the second call, then 2→0
	}}
	table := ts
	for _, tc := range cases {
		_, ws, sinks := flowPairFixture(t, m, tc.ops)
		for i, idx := range tc.frames {
			if i == 1 {
				for _, w := range ws {
					if err := w.AddFlowPair(tc.edit.rids[0], tc.edit.rids[1]); err != nil {
						t.Fatalf("%s: AddFlowPair: %v", tc.name, err)
					}
				}
			}
			replayFlowFrame(ws, table, idx)
			sameFlowOutcome(t, ws, sinks, fmt.Sprintf("%s frame %d", tc.name, i))
		}
		if got := len(sinks[0].faults); got != tc.faults {
			t.Fatalf("%s: %d program-flow errors, want %d: %+v", tc.name, got, tc.faults, sinks[0].faults)
		}
	}
}

// fuzzFlowModel is the fixed model of FuzzFlowEventN: three tasks of
// four runnables, whose first three form a sequence, with a self-loop
// on task 2's first runnable; each task's fourth runnable stays
// unenrolled.
func fuzzFlowModel(tb testing.TB) (*runnable.Model, []flowOp) {
	m, byTask := flowModel(tb, []int{4, 4, 4})
	var ops []flowOp
	for _, ts := range byTask {
		ops = append(ops, flowOp{kind: 2, rids: ts[:3]})
	}
	ops = append(ops, flowOp{kind: 1, rids: []runnable.ID{byTask[2][0], byTask[2][0]}})
	return m, ops
}

// FuzzFlowEventN feeds arbitrary runnable tables and index slices — the
// untrusted half of a frame's flow section — to FlowEventN and requires
// the outcome of a per-record FlowEvent replay. Byte 0 is the table
// length (mod 16), the next bytes the table (identifiers -2..17 over 12
// runnables), the rest index records: 0xFF is a huge index and 0xFE
// ends a frame.
func FuzzFlowEventN(f *testing.F) {
	m, ops := fuzzFlowModel(f)
	f.Add([]byte{12, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 3, 6, 1, 4, 7, 2, 5, 8})
	f.Add([]byte{6, 2, 5, 8, 11, 14, 30, 0, 1, 2, 0, 2, 1, 0xFE, 3, 4, 5, 0xFF, 0, 0})
	f.Add([]byte{4, 4, 4, 0, 1, 0, 1, 2, 3, 0xFE, 1, 1, 1, 9})
	// Runnables 0 and 8 share FlowEventN's memo slot: task 0 runs 0→3,
	// task 2 runs 8→2 and the illegal 8→5, 0→6 follows a memoized 0→3.
	f.Add([]byte{12, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 3, 8, 2, 0, 3, 8, 5, 0, 3, 6, 0, 8, 2})
	f.Add([]byte{12, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 8, 2, 2, 0, 3, 0xFE, 0, 3, 8, 2, 8, 5, 0, 3, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0] % 16)
		data = data[1:]
		if k > len(data) {
			k = len(data)
		}
		table := make([]runnable.ID, k)
		for i, b := range data[:k] {
			table[i] = runnable.ID(int(b)%20 - 2)
		}
		_, ws, sinks := flowPairFixture(t, m, ops)
		var idx []uint32
		flush := func() {
			replayFlowFrame(ws, table, idx)
			sameFlowOutcome(t, ws, sinks, fmt.Sprintf("table %v idx %v", table, idx))
			idx = idx[:0]
		}
		for _, b := range data[k:] {
			switch b {
			case 0xFE:
				flush()
			case 0xFF:
				idx = append(idx, 1<<31+uint32(k))
			default:
				idx = append(idx, uint32(b%20))
			}
		}
		flush()
	})
}

// flowFootprint sums the bytes a flow table holds: the capacities of
// the bitset, the page index, and every page and successor list.
func flowFootprint(ft *flowTable) int {
	size := 8*cap(ft.monitored) + int(unsafe.Sizeof((*flowPage)(nil)))*cap(ft.pages)
	for _, pg := range ft.pages {
		if pg == nil {
			continue
		}
		size += int(unsafe.Sizeof(*pg))
		for _, list := range pg {
			size += int(unsafe.Sizeof(runnable.ID(0))) * cap(list)
		}
	}
	return size
}

// fleetModel is the steady benchmark's shape: tasks × 5 runnables, each
// task's runnables numbered consecutively as fleet.Build numbers
// a node's.
func fleetModel(tb testing.TB, tasks int) (*runnable.Model, [][]runnable.ID) {
	tb.Helper()
	m := runnable.NewModel()
	app, err := m.AddApp("fleet", runnable.SafetyRelevant)
	if err != nil {
		tb.Fatalf("AddApp: %v", err)
	}
	byTask := make([][]runnable.ID, tasks)
	for i := range byTask {
		tid, err := m.AddTask(app, fmt.Sprintf("node%04d", i), 1)
		if err != nil {
			tb.Fatalf("AddTask: %v", err)
		}
		for r := 0; r < 5; r++ {
			rid, err := m.AddRunnable(tid, fmt.Sprintf("node%04d/r%d", i, r), time.Millisecond, runnable.SafetyRelevant)
			if err != nil {
				tb.Fatalf("AddRunnable: %v", err)
			}
			byTask[i] = append(byTask[i], rid)
		}
	}
	if err := m.Freeze(); err != nil {
		tb.Fatalf("Freeze: %v", err)
	}
	return m, byTask
}

// TestFlowTableFootprint pins the sparse table's cost at fleet scale
// (5001 tasks × 5 runnables): without pairs, New allocates no successor
// storage and the table stays under 64 KB; installing a sequence copies
// only the pages it writes and shares every other page with the
// previous snapshot.
func TestFlowTableFootprint(t *testing.T) {
	m, byTask := fleetModel(t, 5001)
	w, err := New(Config{Model: m, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	empty := w.flow.Load()
	for i, pg := range empty.pages {
		if pg != nil {
			t.Fatalf("New allocated successor page %d", i)
		}
	}
	if got := flowFootprint(empty); got >= 64<<10 {
		t.Fatalf("empty table holds %d bytes at %d runnables, want < 64 KB", got, m.NumRunnables())
	}
	if err := w.AddFlowSequence(byTask[100]...); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	first := w.flow.Load()
	if err := w.AddFlowSequence(byTask[4000]...); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	second := w.flow.Load()
	written := map[int]bool{}
	for _, rid := range byTask[4000] {
		written[int(rid)>>flowPageBits] = true
	}
	for i := range second.pages {
		switch {
		case written[i] && (second.pages[i] == nil || second.pages[i] == first.pages[i]):
			t.Fatalf("page %d: written by the sequence but not copied", i)
		case !written[i] && second.pages[i] != first.pages[i]:
			t.Fatalf("page %d: not written by the sequence but not shared", i)
		}
	}
	if grew := flowFootprint(second) - flowFootprint(empty); grew > 4*int(unsafe.Sizeof(flowPage{})) {
		t.Fatalf("two 5-runnable sequences grew the table by %d bytes", grew)
	}
}

// BenchmarkAddFlowSequenceFleet installs one 5-runnable sequence on each
// of 5001 tasks, the steady benchmark's fleet: one op is the whole
// fleet. Each install clones the page index and copies the pages it
// writes, so the total stays linear in the fleet size.
func BenchmarkAddFlowSequenceFleet(b *testing.B) {
	m, byTask := fleetModel(b, 5001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := New(Config{Model: m, Clock: sim.NewManualClock()})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		b.StartTimer()
		for _, seq := range byTask {
			if err := w.AddFlowSequence(seq...); err != nil {
				b.Fatalf("AddFlowSequence: %v", err)
			}
		}
	}
}
