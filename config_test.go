package swwd

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

const validSpec = `{
  "apps": [
    {
      "name": "SafeSpeed",
      "criticality": "safety-critical",
      "tasks": [
        {
          "name": "SafeSpeedTask",
          "priority": 10,
          "flow": true,
          "runnables": [
            {"name": "GetSensorValue", "exec_time": "150us",
             "hypothesis": {"aliveness_cycles": 5, "min_heartbeats": 3,
                            "arrival_cycles": 5, "max_arrivals": 7}},
            {"name": "SAFE_CC_process", "exec_time": "400us",
             "hypothesis": {"aliveness_cycles": 5, "min_heartbeats": 3,
                            "arrival_cycles": 5, "max_arrivals": 7}},
            {"name": "Speed_process", "exec_time": "150us",
             "hypothesis": {"aliveness_cycles": 5, "min_heartbeats": 3,
                            "arrival_cycles": 5, "max_arrivals": 7}}
          ]
        }
      ]
    },
    {
      "name": "Diag",
      "criticality": "QM",
      "tasks": [
        {
          "name": "DiagTask",
          "priority": 1,
          "runnables": [
            {"name": "DiagPoll", "exec_time": "1ms"}
          ]
        }
      ]
    }
  ],
  "watchdog": {
    "cycle_period": "10ms",
    "program_flow_threshold": 3
  }
}`

func TestLoadSpecAndBuild(t *testing.T) {
	spec, err := LoadSpec(strings.NewReader(validSpec))
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	sys, err := spec.Build(nil, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if sys.Model.NumApps() != 2 || sys.Model.NumTasks() != 2 || sys.Model.NumRunnables() != 4 {
		t.Fatalf("model counts %d/%d/%d", sys.Model.NumApps(), sys.Model.NumTasks(), sys.Model.NumRunnables())
	}
	if _, ok := sys.App("SafeSpeed"); !ok {
		t.Fatal("App lookup failed")
	}
	if _, ok := sys.Task("SafeSpeedTask"); !ok {
		t.Fatal("Task lookup failed")
	}
	rid, ok := sys.Runnable("SAFE_CC_process")
	if !ok {
		t.Fatal("Runnable lookup failed")
	}
	hyp, err := sys.Watchdog.Hypothesis(rid)
	if err != nil || hyp.MinHeartbeats != 3 {
		t.Fatalf("hypothesis = %+v, %v", hyp, err)
	}
	c, err := sys.Watchdog.CounterSnapshot(rid)
	if err != nil || !c.Active {
		t.Fatalf("runnable with hypothesis not activated: %+v %v", c, err)
	}
	// Flow table installed: A→C is illegal.
	sys.Heartbeat("GetSensorValue")
	sys.Heartbeat("Speed_process")
	if got := sys.Watchdog.Results().ProgramFlow; got != 1 {
		t.Fatalf("ProgramFlow = %d, want 1", got)
	}
	// Unknown heartbeat names are tolerated.
	sys.Heartbeat("NoSuchRunnable")
	// Partial thresholds filled with the default 3.
	if sys.Watchdog.CyclePeriod().String() != "10ms" {
		t.Fatalf("cycle period = %v", sys.Watchdog.CyclePeriod())
	}
}

func TestLoadSpecErrors(t *testing.T) {
	cases := map[string]struct{ body, want string }{
		"empty apps":    {`{"apps": []}`, ""},
		"unknown field": {`{"apps": [{"name":"a"}], "bogus": 1}`, "unknown field"},
		// sweep_shards selected the removed sharded sweep.
		"removed sweep_shards": {`{"apps": [{"name":"a"}], "watchdog": {"sweep_shards": 4}}`, "unknown field"},
		"not json":             {`{`, ""},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := LoadSpec(strings.NewReader(tc.body))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	build := func(t *testing.T, body string) error {
		t.Helper()
		spec, err := LoadSpec(strings.NewReader(body))
		if err != nil {
			t.Fatalf("LoadSpec: %v", err)
		}
		_, err = spec.Build(nil, nil)
		return err
	}
	cases := map[string]string{
		"bad criticality": `{"apps":[{"name":"a","criticality":"extreme","tasks":[
			{"name":"t","priority":1,"runnables":[{"name":"r","exec_time":"1ms"}]}]}]}`,
		"bad exec time": `{"apps":[{"name":"a","tasks":[
			{"name":"t","priority":1,"runnables":[{"name":"r","exec_time":"fast"}]}]}]}`,
		"duplicate runnable": `{"apps":[{"name":"a","tasks":[
			{"name":"t","priority":1,"runnables":[
				{"name":"r","exec_time":"1ms"},{"name":"r","exec_time":"1ms"}]}]}]}`,
		"duplicate task": `{"apps":[{"name":"a","tasks":[
			{"name":"t","priority":1,"runnables":[{"name":"r1","exec_time":"1ms"}]},
			{"name":"t","priority":1,"runnables":[{"name":"r2","exec_time":"1ms"}]}]}]}`,
		"duplicate app": `{"apps":[
			{"name":"a","tasks":[{"name":"t1","priority":1,"runnables":[{"name":"r1","exec_time":"1ms"}]}]},
			{"name":"a","tasks":[{"name":"t2","priority":1,"runnables":[{"name":"r2","exec_time":"1ms"}]}]}]}`,
		"flow with one runnable": `{"apps":[{"name":"a","tasks":[
			{"name":"t","priority":1,"flow":true,"runnables":[{"name":"r","exec_time":"1ms"}]}]}]}`,
		"empty task": `{"apps":[{"name":"a","tasks":[
			{"name":"t","priority":1,"runnables":[]}]}]}`,
		"bad cycle period": `{"apps":[{"name":"a","tasks":[
			{"name":"t","priority":1,"runnables":[{"name":"r","exec_time":"1ms"}]}]}],
			"watchdog":{"cycle_period":"soon"}}`,
		"bad hypothesis": `{"apps":[{"name":"a","tasks":[
			{"name":"t","priority":1,"runnables":[{"name":"r","exec_time":"1ms",
			 "hypothesis":{"aliveness_cycles":5}}]}]}]}`,
		"journal too large": `{"apps":[{"name":"a","tasks":[
			{"name":"t","priority":1,"runnables":[{"name":"r","exec_time":"1ms"}]}]}],
			"watchdog":{"journal_size":9223372036854775807}}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if err := build(t, body); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestBuildMinimalDefaults(t *testing.T) {
	body := `{"apps":[{"name":"a","tasks":[
		{"name":"t","priority":1,"runnables":[{"name":"r","exec_time":"1ms"}]}]}]}`
	spec, err := LoadSpec(strings.NewReader(body))
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	sys, err := spec.Build(nil, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if sys.Watchdog.CyclePeriod() != CyclePeriodDefault {
		t.Fatalf("cycle period = %v", sys.Watchdog.CyclePeriod())
	}
	if _, ok := sys.Runnable("r"); !ok {
		t.Fatal("runnable lookup failed")
	}
}

// TestTreatmentSpecRoundTrip: the treatment section survives a JSON
// marshal/parse round trip and converts to the engine's edge list and
// policy, both embedded in a full Spec and as a standalone document.
func TestTreatmentSpecRoundTrip(t *testing.T) {
	body := `{"apps":[{"name":"a","tasks":[
		{"name":"t","priority":1,"runnables":[{"name":"r","exec_time":"1ms"}]}]}],
		"treatment":{"edges":[{"node":1,"depends_on":0},{"node":2,"depends_on":0}],
		"recovery_frames":5,"scale_down":"dependents","restart_dependents":true}}`
	spec, err := LoadSpec(strings.NewReader(body))
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	if spec.Treatment == nil {
		t.Fatal("treatment section not parsed")
	}

	// Marshal and re-parse: the section must survive unchanged.
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	spec2, err := LoadSpec(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if spec2.Treatment.RecoveryFrames != 5 || !spec2.Treatment.RestartDependents ||
		spec2.Treatment.ScaleDown != "dependents" ||
		len(spec2.Treatment.Edges) != 2 ||
		spec2.Treatment.Edges[0] != (TreatmentEdgeSpec{Node: 1, DependsOn: 0}) ||
		spec2.Treatment.Edges[1] != (TreatmentEdgeSpec{Node: 2, DependsOn: 0}) {
		t.Fatalf("round-tripped treatment = %+v, want %+v", spec2.Treatment, spec.Treatment)
	}

	edges, pol, err := spec2.Treatment.Treatment(3)
	if err != nil {
		t.Fatalf("Treatment: %v", err)
	}
	if len(edges) != 2 || edges[0] != (TreatmentEdge{Node: 1, DependsOn: 0}) {
		t.Fatalf("edges = %+v", edges)
	}
	if pol.RecoveryFrames != 5 || !pol.RestartDependents || pol.DisableScaleDown {
		t.Fatalf("policy = %+v", pol)
	}

	// The standalone loader parses just the section.
	ts, err := LoadTreatment(strings.NewReader(
		`{"edges":[{"node":1,"depends_on":0}],"scale_down":"off"}`))
	if err != nil {
		t.Fatalf("LoadTreatment: %v", err)
	}
	if _, pol, err := ts.Treatment(2); err != nil || !pol.DisableScaleDown {
		t.Fatalf("standalone treatment = %+v, %v", pol, err)
	}
}

// TestTreatmentSpecErrors: malformed treatment sections fail with
// errors.Is-able sentinels.
func TestTreatmentSpecErrors(t *testing.T) {
	if _, err := LoadTreatment(strings.NewReader(`{"edges":1}`)); !errors.Is(err, ErrTreatmentSpec) {
		t.Fatalf("parse error = %v, want ErrTreatmentSpec", err)
	}
	if _, err := LoadTreatment(strings.NewReader(`{"bogus":true}`)); !errors.Is(err, ErrTreatmentSpec) {
		t.Fatalf("unknown field error = %v, want ErrTreatmentSpec", err)
	}
	cases := map[string]struct {
		spec  TreatmentSpec
		nodes int
		also  error
	}{
		"negative recovery": {TreatmentSpec{RecoveryFrames: -1}, 2, nil},
		"bad scale_down":    {TreatmentSpec{ScaleDown: "sideways"}, 2, nil},
		"unknown node": {TreatmentSpec{
			Edges: []TreatmentEdgeSpec{{Node: 9, DependsOn: 0}}}, 2, ErrTreatmentUnknownNode},
		"self dependency": {TreatmentSpec{
			Edges: []TreatmentEdgeSpec{{Node: 1, DependsOn: 1}}}, 2, ErrTreatmentSelfDependency},
		"duplicate edge": {TreatmentSpec{
			Edges: []TreatmentEdgeSpec{{Node: 1, DependsOn: 0}, {Node: 1, DependsOn: 0}}}, 2, ErrTreatmentDuplicateEdge},
		"cycle": {TreatmentSpec{
			Edges: []TreatmentEdgeSpec{{Node: 1, DependsOn: 0}, {Node: 0, DependsOn: 1}}}, 2, ErrTreatmentCycle},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := tc.spec.Treatment(tc.nodes)
			if !errors.Is(err, ErrTreatmentSpec) {
				t.Fatalf("err = %v, want ErrTreatmentSpec", err)
			}
			if tc.also != nil && !errors.Is(err, tc.also) {
				t.Fatalf("err = %v, want it to also match %v", err, tc.also)
			}
		})
	}
}

// TestCalibrationSpecRoundTrip: the calibration section survives a
// JSON marshal/parse round trip and converts to defaulted, validated
// calibration parameters, both embedded in a full Spec and standalone.
func TestCalibrationSpecRoundTrip(t *testing.T) {
	body := `{"apps":[{"name":"a","tasks":[
		{"name":"t","priority":1,"runnables":[{"name":"r","exec_time":"1ms"}]}]}],
		"calibration":{"window_cycles":200,"margin":0.4,"promote_after":4,"canary_fraction":0.5}}`
	spec, err := LoadSpec(strings.NewReader(body))
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	if spec.Calibration == nil {
		t.Fatal("calibration section not parsed")
	}

	// Marshal and re-parse: the section must survive unchanged.
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	spec2, err := LoadSpec(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	want := CalibrationSpec{WindowCycles: 200, Margin: 0.4, PromoteAfter: 4, CanaryFraction: 0.5}
	if *spec2.Calibration != want {
		t.Fatalf("round-tripped calibration = %+v, want %+v", *spec2.Calibration, want)
	}

	p, err := spec2.Calibration.Params()
	if err != nil {
		t.Fatalf("Params: %v", err)
	}
	if p.WindowCycles != 200 || p.Margin != 0.4 || p.PromoteAfter != 4 || p.CanaryFraction != 0.5 {
		t.Fatalf("params = %+v", p)
	}

	// Standalone document with knobs left to their defaults.
	cs, err := LoadCalibration(strings.NewReader(`{"window_cycles":100}`))
	if err != nil {
		t.Fatalf("LoadCalibration: %v", err)
	}
	p, err = cs.Params()
	if err != nil {
		t.Fatalf("Params: %v", err)
	}
	if p.WindowCycles != 100 || p.Margin <= 0 || p.PromoteAfter <= 0 || p.CanaryFraction <= 0 {
		t.Fatalf("defaulted params = %+v", p)
	}
}

// TestCalibrationSpecErrors: malformed calibration sections fail with
// the ErrCalibrationSpec sentinel.
func TestCalibrationSpecErrors(t *testing.T) {
	if _, err := LoadCalibration(strings.NewReader(`{"margin":"wide"}`)); !errors.Is(err, ErrCalibrationSpec) {
		t.Fatalf("parse error = %v, want ErrCalibrationSpec", err)
	}
	if _, err := LoadCalibration(strings.NewReader(`{"bogus":true}`)); !errors.Is(err, ErrCalibrationSpec) {
		t.Fatalf("unknown field error = %v, want ErrCalibrationSpec", err)
	}
	for name, cs := range map[string]CalibrationSpec{
		"missing window":  {},
		"negative window": {WindowCycles: -5},
		"margin too big":  {WindowCycles: 100, Margin: 1.5},
		"bad promote":     {WindowCycles: 100, PromoteAfter: -1},
		"canary too big":  {WindowCycles: 100, CanaryFraction: 2},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := cs.Params(); !errors.Is(err, ErrCalibrationSpec) {
				t.Fatalf("err = %v, want ErrCalibrationSpec", err)
			}
		})
	}
}

// FuzzLoadSpec feeds arbitrary bytes to the three operator-facing spec
// loaders and what each result builds: LoadSpec→Build,
// LoadTreatment→Treatment and LoadCalibration→Params. None may panic or
// hang; a malformed document must come back as an error.
func FuzzLoadSpec(f *testing.F) {
	// The one-runnable spec of the spec-mode CI smoke step.
	f.Add([]byte(`{
  "apps": [{"name": "Smoke", "criticality": "safety-critical", "tasks": [{
    "name": "SmokeTask", "priority": 10,
    "runnables": [{"name": "Sensor", "exec_time": "100us",
      "hypothesis": {"aliveness_cycles": 10, "min_heartbeats": 1,
                     "arrival_cycles": 10, "max_arrivals": 100}}]
  }]}],
  "watchdog": {"cycle_period": "10ms"}
}`))
	// The flow-checked spec of examples/specfile.
	f.Add([]byte(`{
  "apps": [{"name": "BrakeControl", "criticality": "safety-critical", "tasks": [{
    "name": "BrakeTask", "priority": 10, "flow": true,
    "runnables": [
      {"name": "ReadPedal", "exec_time": "100us",
       "hypothesis": {"aliveness_cycles": 10, "min_heartbeats": 2, "arrival_cycles": 10, "max_arrivals": 30}},
      {"name": "ComputePressure", "exec_time": "300us",
       "hypothesis": {"aliveness_cycles": 10, "min_heartbeats": 2, "arrival_cycles": 10, "max_arrivals": 30}},
      {"name": "ApplyBrake", "exec_time": "100us",
       "hypothesis": {"aliveness_cycles": 10, "min_heartbeats": 2, "arrival_cycles": 10, "max_arrivals": 30}}]
  }]}],
  "watchdog": {"cycle_period": "5ms", "program_flow_threshold": 3}
}`))
	// A journal size whose power-of-two rounding used to overflow.
	f.Add([]byte(`{"apps":[{"name":"a","tasks":[{"name":"t","priority":1,
		"runnables":[{"name":"r","exec_time":"1ms"}]}]}],
		"watchdog":{"journal_size":9223372036854775807}}`))
	f.Add([]byte(validSpec))
	f.Add([]byte(`{"edges":[{"node":1,"depends_on":0},{"node":2,"depends_on":1}],"recovery_frames":3,"scale_down":"dependents"}`))
	f.Add([]byte(`{"window_cycles":100,"margin":0.3,"promote_after":2,"canary_fraction":0.25}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, err := LoadSpec(bytes.NewReader(data)); err == nil {
			if sys, err := spec.Build(nil, nil); err == nil && sys.Watchdog == nil {
				t.Fatal("Build returned no watchdog and no error")
			}
		}
		if ts, err := LoadTreatment(bytes.NewReader(data)); err == nil {
			_, _, _ = ts.Treatment(8)
		}
		if cs, err := LoadCalibration(bytes.NewReader(data)); err == nil {
			if _, err := cs.Params(); err != nil && !errors.Is(err, ErrCalibrationSpec) {
				t.Fatalf("Params error %v does not wrap ErrCalibrationSpec", err)
			}
		}
	})
}
