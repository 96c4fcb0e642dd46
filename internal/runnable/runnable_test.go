package runnable

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func buildSafeSpeed(t *testing.T) (*Model, AppID, TaskID, [3]ID) {
	t.Helper()
	m := NewModel()
	app, err := m.AddApp("SafeSpeed", SafetyCritical)
	if err != nil {
		t.Fatalf("AddApp: %v", err)
	}
	task, err := m.AddTask(app, "SafeSpeedTask", 5)
	if err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	var rs [3]ID
	names := []string{"GetSensorValue", "SAFE_CC_process", "Speed_process"}
	for i, n := range names {
		rs[i], err = m.AddRunnable(task, n, 200*time.Microsecond, SafetyCritical)
		if err != nil {
			t.Fatalf("AddRunnable(%s): %v", n, err)
		}
	}
	return m, app, task, rs
}

func TestBuildAndQuery(t *testing.T) {
	m, app, task, rs := buildSafeSpeed(t)
	if m.NumApps() != 1 || m.NumTasks() != 1 || m.NumRunnables() != 3 {
		t.Fatalf("counts = %d/%d/%d", m.NumApps(), m.NumTasks(), m.NumRunnables())
	}
	tk, err := m.Task(task)
	if err != nil {
		t.Fatalf("Task: %v", err)
	}
	if len(tk.Runnables) != 3 {
		t.Fatalf("task has %d runnables, want 3", len(tk.Runnables))
	}
	for i, want := range rs {
		if tk.Runnables[i] != want {
			t.Fatalf("runnable order %v, want %v", tk.Runnables, rs)
		}
	}
	a, err := m.App(app)
	if err != nil {
		t.Fatalf("App: %v", err)
	}
	if a.Name != "SafeSpeed" || a.Criticality != SafetyCritical {
		t.Fatalf("App = %+v", a)
	}
	r, err := m.Runnable(rs[1])
	if err != nil {
		t.Fatalf("Runnable: %v", err)
	}
	if r.Name != "SAFE_CC_process" || r.Task != task {
		t.Fatalf("Runnable = %+v", r)
	}
}

func TestMappingChain(t *testing.T) {
	m, app, task, rs := buildSafeSpeed(t)
	for _, r := range rs {
		if got := m.TaskOf(r); got != task {
			t.Fatalf("TaskOf(%d) = %d, want %d", r, got, task)
		}
		if got := m.AppOfRunnable(r); got != app {
			t.Fatalf("AppOfRunnable(%d) = %d, want %d", r, got, app)
		}
	}
	if got := m.AppOf(task); got != app {
		t.Fatalf("AppOf = %d, want %d", got, app)
	}
	if m.TaskOf(ID(99)) != NoID || m.AppOf(TaskID(99)) != NoID || m.AppOfRunnable(ID(99)) != NoID {
		t.Fatal("unknown ids should map to NoID")
	}
}

func TestLookupByName(t *testing.T) {
	m, _, _, rs := buildSafeSpeed(t)
	id, ok := m.Lookup("Speed_process")
	if !ok || id != rs[2] {
		t.Fatalf("Lookup = %d,%v", id, ok)
	}
	if _, ok := m.Lookup("NoSuch"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

func TestDuplicateRunnableName(t *testing.T) {
	m, _, task, _ := buildSafeSpeed(t)
	if _, err := m.AddRunnable(task, "GetSensorValue", time.Millisecond, QM); err == nil {
		t.Fatal("duplicate runnable name accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	m := NewModel()
	if _, err := m.AddApp("", QM); err == nil {
		t.Error("empty app name accepted")
	}
	if _, err := m.AddTask(AppID(3), "t", 1); err == nil {
		t.Error("task with unknown app accepted")
	}
	app, _ := m.AddApp("A", QM)
	if _, err := m.AddTask(app, "", 1); err == nil {
		t.Error("empty task name accepted")
	}
	task, _ := m.AddTask(app, "T", 1)
	if _, err := m.AddRunnable(task, "", time.Millisecond, QM); err == nil {
		t.Error("empty runnable name accepted")
	}
	if _, err := m.AddRunnable(TaskID(9), "r", time.Millisecond, QM); err == nil {
		t.Error("runnable with unknown task accepted")
	}
	if _, err := m.AddRunnable(task, "r", -time.Second, QM); err == nil {
		t.Error("negative exec time accepted")
	}
}

func TestFreeze(t *testing.T) {
	m, _, task, _ := buildSafeSpeed(t)
	if m.Frozen() {
		t.Fatal("model frozen before Freeze")
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if !m.Frozen() {
		t.Fatal("model not frozen after Freeze")
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
	if _, err := m.AddApp("B", QM); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddApp after Freeze = %v, want ErrFrozen", err)
	}
	if _, err := m.AddTask(AppID(0), "t2", 1); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddTask after Freeze = %v, want ErrFrozen", err)
	}
	if _, err := m.AddRunnable(task, "r2", time.Millisecond, QM); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddRunnable after Freeze = %v, want ErrFrozen", err)
	}
}

func TestFreezeRejectsEmptyTask(t *testing.T) {
	m := NewModel()
	app, _ := m.AddApp("A", QM)
	if _, err := m.AddTask(app, "empty", 1); err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	if err := m.Freeze(); err == nil {
		t.Fatal("Freeze accepted a task with no runnables")
	}
}

func TestCriticalRunnables(t *testing.T) {
	m := NewModel()
	app, _ := m.AddApp("A", QM)
	task, _ := m.AddTask(app, "T", 1)
	r1, _ := m.AddRunnable(task, "qm", time.Millisecond, QM)
	r2, _ := m.AddRunnable(task, "rel", time.Millisecond, SafetyRelevant)
	r3, _ := m.AddRunnable(task, "crit", time.Millisecond, SafetyCritical)
	got := m.CriticalRunnables(SafetyRelevant)
	if len(got) != 2 || got[0] != r2 || got[1] != r3 {
		t.Fatalf("CriticalRunnables(SafetyRelevant) = %v", got)
	}
	if got := m.CriticalRunnables(QM); len(got) != 3 || got[0] != r1 {
		t.Fatalf("CriticalRunnables(QM) = %v", got)
	}
}

func TestCopiedAccessors(t *testing.T) {
	m, _, _, _ := buildSafeSpeed(t)
	rs := m.Runnables()
	rs[0].Name = "mutated"
	if r, _ := m.Runnable(0); r.Name == "mutated" {
		t.Fatal("Runnables() exposes internal state")
	}
	ts := m.Tasks()
	ts[0].Name = "mutated"
	if tk, _ := m.Task(0); tk.Name == "mutated" {
		t.Fatal("Tasks() exposes internal state")
	}
	as := m.Apps()
	as[0].Name = "mutated"
	if a, _ := m.App(0); a.Name == "mutated" {
		t.Fatal("Apps() exposes internal state")
	}
}

func TestCriticalityString(t *testing.T) {
	cases := map[Criticality]string{
		QM:             "QM",
		SafetyRelevant: "safety-relevant",
		SafetyCritical: "safety-critical",
		Criticality(9): "Criticality(9)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

// Property: IDs handed out are dense and stable — the i-th added runnable
// has ID i and round-trips through name lookup.
func TestQuickDenseIDs(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%50) + 1
		m := NewModel()
		app, err := m.AddApp("A", QM)
		if err != nil {
			return false
		}
		task, err := m.AddTask(app, "T", 1)
		if err != nil {
			return false
		}
		for i := 0; i < count; i++ {
			name := "r" + string(rune('A'+i%26)) + string(rune('0'+i/26))
			id, err := m.AddRunnable(task, name, time.Millisecond, QM)
			if err != nil || id != ID(i) {
				return false
			}
			back, ok := m.Lookup(name)
			if !ok || back != id {
				return false
			}
		}
		return m.NumRunnables() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedRunnableMapping(t *testing.T) {
	m := NewModel()
	appA, _ := m.AddApp("A", SafetyCritical)
	appB, _ := m.AddApp("B", SafetyRelevant)
	task, _ := m.AddTask(appA, "Shared", 5)
	ra, err := m.AddRunnable(task, "ra", time.Millisecond, SafetyCritical)
	if err != nil {
		t.Fatalf("AddRunnable: %v", err)
	}
	rb, err := m.AddSharedRunnable(task, appB, "rb", time.Millisecond, SafetyRelevant)
	if err != nil {
		t.Fatalf("AddSharedRunnable: %v", err)
	}
	if got := m.AppOfRunnable(ra); got != appA {
		t.Fatalf("AppOfRunnable(ra) = %d, want %d", got, appA)
	}
	if got := m.AppOfRunnable(rb); got != appB {
		t.Fatalf("AppOfRunnable(rb) = %d, want %d", got, appB)
	}
	apps := m.AppsOfTask(task)
	if len(apps) != 2 || apps[0] != appA || apps[1] != appB {
		t.Fatalf("AppsOfTask = %v", apps)
	}
	// The shared task appears in both apps' task sets, exactly once.
	a, _ := m.App(appA)
	b, _ := m.App(appB)
	if len(a.Tasks) != 1 || len(b.Tasks) != 1 || a.Tasks[0] != task || b.Tasks[0] != task {
		t.Fatalf("task sets: A=%v B=%v", a.Tasks, b.Tasks)
	}
	// Another B runnable on the same task must not duplicate the entry.
	if _, err := m.AddSharedRunnable(task, appB, "rb2", time.Millisecond, QM); err != nil {
		t.Fatalf("AddSharedRunnable: %v", err)
	}
	b, _ = m.App(appB)
	if len(b.Tasks) != 1 {
		t.Fatalf("duplicate task entry: %v", b.Tasks)
	}
	if m.AppsOfTask(TaskID(99)) != nil {
		t.Fatal("unknown task returned apps")
	}
	if _, err := m.AddSharedRunnable(task, AppID(9), "x", time.Millisecond, QM); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestTaskListsKeepOrder pins the exact contents and order of App.Tasks
// and Task.Runnables: a task is listed under its primary application by
// AddTask, and under any other application once, at the first runnable
// of that application it hosts.
func TestTaskListsKeepOrder(t *testing.T) {
	type step struct {
		task TaskID
		app  AppID
	}
	cases := []struct {
		name      string
		taskApps  []AppID // primary application of tasks 0, 1, ...
		steps     []step  // one runnable each, IDs 0, 1, ... in order
		appTasks  [][]TaskID
		taskRunns [][]ID
	}{
		{
			name:      "same-app",
			taskApps:  []AppID{0, 0, 0},
			steps:     []step{{1, 0}, {0, 0}, {1, 0}, {2, 0}, {0, 0}},
			appTasks:  [][]TaskID{{0, 1, 2}},
			taskRunns: [][]ID{{1, 4}, {0, 2}, {3}},
		},
		{
			name:      "shared-into-second-app",
			taskApps:  []AppID{0, 0, 1},
			steps:     []step{{0, 0}, {1, 0}, {2, 1}, {1, 1}, {0, 1}},
			appTasks:  [][]TaskID{{0, 1}, {2, 1, 0}},
			taskRunns: [][]ID{{0, 4}, {1, 3}, {2}},
		},
		{
			name:     "repeated-shared",
			taskApps: []AppID{0, 0, 1},
			steps: []step{{0, 0}, {1, 0}, {2, 1}, {1, 1}, {1, 1}, {0, 1},
				{1, 1}, {0, 1}, {2, 0}, {2, 0}, {0, 0}},
			appTasks:  [][]TaskID{{0, 1, 2}, {2, 1, 0}},
			taskRunns: [][]ID{{0, 5, 7, 10}, {1, 3, 4, 6}, {2, 8, 9}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel()
			for i := range tc.appTasks {
				if _, err := m.AddApp(fmt.Sprintf("app%d", i), SafetyRelevant); err != nil {
					t.Fatal(err)
				}
			}
			for i, app := range tc.taskApps {
				if _, err := m.AddTask(app, fmt.Sprintf("task%d", i), 1); err != nil {
					t.Fatal(err)
				}
			}
			for i, s := range tc.steps {
				if _, err := m.AddSharedRunnable(s.task, s.app, fmt.Sprintf("r%d", i), time.Millisecond, QM); err != nil {
					t.Fatal(err)
				}
			}
			for i, want := range tc.appTasks {
				if got := m.Apps()[i].Tasks; !slices.Equal(got, want) {
					t.Errorf("app %d: Tasks = %v, want %v", i, got, want)
				}
			}
			for i, want := range tc.taskRunns {
				if got := m.Tasks()[i].Runnables; !slices.Equal(got, want) {
					t.Errorf("task %d: Runnables = %v, want %v", i, got, want)
				}
			}
		})
	}
}
