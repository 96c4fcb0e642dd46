package hil

import (
	"math"
	"testing"
	"time"

	"swwd/internal/core"
	"swwd/internal/fmf"
	"swwd/internal/inject"
	"swwd/internal/osek"
	"swwd/internal/sim"
	"swwd/internal/vehicle"
)

func newValidator(t *testing.T, opts Options) *Validator {
	t.Helper()
	v, err := New(opts)
	if err != nil {
		t.Fatalf("hil.New: %v", err)
	}
	return v
}

func TestHealthyRunNoDetections(t *testing.T) {
	v := newValidator(t, Options{})
	if err := v.Run(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := v.Watchdog.Results()
	if res != (core.Results{}) {
		t.Fatalf("healthy run produced detections: %+v (faults %v)", res, v.Watchdog.Journal())
	}
	// The speed limiter must actually be limiting: driver wants 150, the
	// command is 80.
	got := vehicle.MsToKph(v.Long.Speed())
	if got > 85 || got < 60 {
		t.Fatalf("speed = %.1f km/h, want limited near 80", got)
	}
	if st, _ := v.Watchdog.TaskState(v.SafeSpeed.Task); st != core.StateOK {
		t.Fatalf("task state = %v", st)
	}
	// Recorder captured the standard series.
	for _, name := range []string{"GetSensorValue.AC", "AM Result", "PFC Result", "TaskState", "speed_kph"} {
		if v.Recorder.Series(name) == nil {
			t.Fatalf("series %q not recorded", name)
		}
	}
}

func TestFig5AlivenessInjection(t *testing.T) {
	// E1: slow the SafeSpeed dispatch alarm so heartbeats fall below the
	// hypothesis → AM Result rises only after injection.
	v := newValidator(t, Options{})
	injection := &inject.AlarmRateScale{OS: v.OS, Alarm: v.SafeSpeedAlarm, Scale: 8}
	if err := v.Injector.Window(2*sim.Second, 4*sim.Second, injection); err != nil {
		t.Fatalf("Window: %v", err)
	}
	if err := v.Run(6 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	am := v.Recorder.Series("AM Result")
	if am == nil {
		t.Fatal("AM Result not recorded")
	}
	// Before injection (t < 2s): zero. After: rising.
	for _, p := range am.Points {
		if p.Time < 2*sim.Second && p.Value != 0 {
			t.Fatalf("AM Result nonzero before injection: %+v", p)
		}
	}
	if am.Last() == 0 {
		t.Fatal("AM Result never rose after aliveness injection")
	}
	res := v.Watchdog.Results()
	if res.Aliveness == 0 {
		t.Fatalf("no aliveness detections: %+v", res)
	}
	if res.ProgramFlow != 0 {
		t.Fatalf("aliveness injection produced flow errors: %+v", res)
	}
	// Detection latency: first detection within ~2 hypothesis windows
	// (50-cycle window at 10ms = 500ms) after the 2s injection.
	first := sim.Time(0)
	for _, p := range am.Points {
		if p.Value > 0 {
			first = p.Time
			break
		}
	}
	if first < 2*sim.Second || first > 3200*sim.Millisecond {
		t.Fatalf("first detection at %v, want within (2s, 3.2s]", first)
	}
}

func TestFig6CollaborationPFCRootCause(t *testing.T) {
	// E2: invalid execution branch in SafeSpeed. PFC Result rises, the
	// task goes faulty at the third flow error, and only ONE aliveness
	// error is accumulated (root-cause correlation).
	v := newValidator(t, Options{})
	branch := &inject.FlagFault{
		Label: "invalid-branch",
		Set:   func() { v.SafeSpeed.FaultBranch = 1 },
		Unset: func() { v.SafeSpeed.FaultBranch = 0 },
	}
	v.Injector.ApplyAt(2*sim.Second, branch)
	if err := v.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := v.Watchdog.Results()
	if res.ProgramFlow < 3 {
		t.Fatalf("ProgramFlow = %d, want >= 3", res.ProgramFlow)
	}
	if res.Aliveness != 1 {
		t.Fatalf("Aliveness = %d, want exactly 1 (Fig. 6: 'Only one accumulated aliveness error is reported')", res.Aliveness)
	}
	if st, _ := v.Watchdog.TaskState(v.SafeSpeed.Task); st != core.StateFaulty {
		t.Fatal("task not faulty after three PFC errors")
	}
	// Task state flipped when PFC Result crossed the threshold 3.
	ts := v.Recorder.Series("TaskState")
	pfc := v.Recorder.Series("PFC Result")
	var flipAt sim.Time = -1
	for _, p := range ts.Points {
		if p.Value == 1 {
			flipAt = p.Time
			break
		}
	}
	if flipAt < 0 {
		t.Fatal("TaskState never flipped in the trace")
	}
	for _, p := range pfc.Points {
		if p.Time == flipAt && p.Value < 3 {
			t.Fatalf("task flipped at %v with PFC Result %v < 3", flipAt, p.Value)
		}
	}
}

// TestFirstDetectionOnLongRun: the first program-flow error of a long
// run is the one right after injection, however many follow it (the
// invalid branch raises one per 10 ms SafeSpeed period).
func TestFirstDetectionOnLongRun(t *testing.T) {
	v := newValidator(t, Options{})
	const injectAt = 2 * sim.Second
	v.Injector.ApplyAt(injectAt, &inject.FlagFault{
		Label: "invalid-branch",
		Set:   func() { v.SafeSpeed.FaultBranch = 1 },
	})
	if err := v.Run(22 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := v.Watchdog.Results().ProgramFlow; n < 1024 {
		t.Fatalf("ProgramFlow = %d, want a run past 1,024 detections", n)
	}
	first := v.FirstDetection(core.ProgramFlowError)
	if lat := first.Sub(injectAt); first == 0 || lat < 0 || lat > 10*time.Millisecond {
		t.Fatalf("first program-flow error at %v, want within 10ms of the injection at %v", first, injectAt)
	}
}

func TestArrivalRateInjection(t *testing.T) {
	// E3: burst-dispatch the SafeSpeed task → AR Result rises.
	v := newValidator(t, Options{})
	injection := &inject.BurstDispatch{OS: v.OS, Task: v.SafeSpeed.Task, Period: 5 * time.Millisecond}
	if err := v.Injector.Window(2*sim.Second, 4*sim.Second, injection); err != nil {
		t.Fatalf("Window: %v", err)
	}
	if err := v.Run(6 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := v.Watchdog.Results()
	if res.ArrivalRate == 0 {
		t.Fatalf("no arrival-rate detections: %+v", res)
	}
	ar := v.Recorder.Series("AR Result")
	for _, p := range ar.Points {
		if p.Time < 2*sim.Second && p.Value != 0 {
			t.Fatalf("AR Result nonzero before injection: %+v", p)
		}
	}
}

func TestExecStretchCausesAliveness(t *testing.T) {
	// Stretching SAFE_CC_process so far that the 10ms task overruns its
	// period starves heartbeats (category 1: blocked too long).
	v := newValidator(t, Options{})
	injection := &inject.ExecStretch{OS: v.OS, Runnable: v.SafeSpeed.SAFECCProcess, Scale: 200}
	v.Injector.ApplyAt(2*sim.Second, injection)
	if err := v.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res := v.Watchdog.Results(); res.Aliveness == 0 {
		t.Fatalf("stretched runnable produced no aliveness errors: %+v", res)
	}
}

func TestTreatmentRestartsFaultyApp(t *testing.T) {
	// T3: with treatment enabled, the FMF restarts the faulty SafeSpeed
	// application; after the fault window ends the system recovers.
	v := newValidator(t, Options{EnableTreatment: true})
	branch := &inject.FlagFault{
		Label: "invalid-branch",
		Set:   func() { v.SafeSpeed.FaultBranch = 1 },
		Unset: func() { v.SafeSpeed.FaultBranch = 0 },
	}
	if err := v.Injector.Window(2*sim.Second, 4*sim.Second, branch); err != nil {
		t.Fatalf("Window: %v", err)
	}
	if err := v.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	treatments := v.FMF.Treatments()
	if len(treatments) == 0 {
		t.Fatal("no treatments executed")
	}
	if treatments[0].Action != fmf.RestartAppAction {
		t.Fatalf("treatment = %+v, want restart-application", treatments[0])
	}
	// After recovery the task must be OK again and the app running.
	if st, _ := v.Watchdog.TaskState(v.SafeSpeed.Task); st != core.StateOK {
		t.Fatalf("task state after recovery = %v", st)
	}
	if as, _ := v.Watchdog.AppState(v.SafeSpeed.App); as != core.StateOK {
		t.Fatalf("app state after recovery = %v", as)
	}
	// The application is alive: control keeps executing after treatment.
	before := v.SafeSpeed.ControlExecutions()
	if err := v.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.SafeSpeed.ControlExecutions() <= before {
		t.Fatal("application dead after treatment")
	}
}

func TestECUResetTreatment(t *testing.T) {
	// Make any single faulty app an ECU-level fault and allow the reset.
	v := newValidator(t, Options{
		EnableTreatment:   true,
		AllowECUReset:     true,
		ECUFaultyAppCount: 1,
	})
	branch := &inject.FlagFault{
		Label: "invalid-branch",
		Set:   func() { v.SafeSpeed.FaultBranch = 1 },
		Unset: func() { v.SafeSpeed.FaultBranch = 0 },
	}
	if err := v.Injector.Window(2*sim.Second, 4*sim.Second, branch); err != nil {
		t.Fatalf("Window: %v", err)
	}
	if err := v.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.OS.ResetCount() == 0 {
		t.Fatal("ECU was never reset")
	}
	sawReset := false
	for _, tr := range v.FMF.Treatments() {
		if tr.Action == fmf.ResetECUAction {
			sawReset = true
		}
	}
	if !sawReset {
		t.Fatalf("no reset treatment recorded: %+v", v.FMF.Treatments())
	}
	// System is alive after reset.
	before := v.SafeSpeed.ControlExecutions()
	if err := v.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.SafeSpeed.ControlExecutions() <= before {
		t.Fatal("system dead after ECU reset")
	}
}

func TestCorrelationAblation(t *testing.T) {
	// DESIGN.md ablation: without the collaboration logic, Fig. 6's run
	// accumulates many aliveness errors instead of one.
	run := func(disable bool) uint64 {
		v := newValidator(t, Options{DisableCorrelation: disable})
		branch := &inject.FlagFault{
			Label: "invalid-branch",
			Set:   func() { v.SafeSpeed.FaultBranch = 1 },
		}
		v.Injector.ApplyAt(2*sim.Second, branch)
		if err := v.Run(8 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return v.Watchdog.Results().Aliveness
	}
	with := run(false)
	without := run(true)
	if with != 1 {
		t.Fatalf("correlated run accumulated %d aliveness errors, want 1", with)
	}
	if without <= with {
		t.Fatalf("ablation: without correlation %d should exceed with %d", without, with)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (core.Results, float64) {
		v := newValidator(t, Options{})
		injection := &inject.AlarmRateScale{OS: v.OS, Alarm: v.SafeSpeedAlarm, Scale: 8}
		if err := v.Injector.Window(2*sim.Second, 4*sim.Second, injection); err != nil {
			t.Fatalf("Window: %v", err)
		}
		if err := v.Run(6 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return v.Watchdog.Results(), v.Long.Speed()
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 || s1 != s2 {
		t.Fatalf("nondeterministic runs: %+v/%v vs %+v/%v", r1, s1, r2, s2)
	}
}

func TestNetworkedValidator(t *testing.T) {
	v := newValidator(t, Options{WithNetworks: true})
	if err := v.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.Net == nil {
		t.Fatal("network not built")
	}
	// The limit command travelled telematics → gateway → CAN.
	if v.Net.LimitCommandsReceived() == 0 {
		t.Fatal("no limit commands received over the gateway path")
	}
	// The steering command reached the actuator node over FlexRay.
	if math.IsNaN(v.Net.ActuatorSteer()) {
		t.Fatal("no steer over FlexRay")
	}
	// CAN speed frames flowed.
	if v.Net.CANBus.Stats().FramesDelivered == 0 {
		t.Fatal("no CAN traffic")
	}
	if v.Net.FRBus.Stats().StaticFrames == 0 {
		t.Fatal("no FlexRay traffic")
	}
	// Gateway forwarded on both routes.
	stats := v.Net.Gateway.Stats()
	if len(stats) != 2 || stats[0].Forwarded == 0 || stats[1].Forwarded == 0 {
		t.Fatalf("gateway stats = %+v", stats)
	}
	// The watchdog stays quiet on the healthy networked run.
	if res := v.Watchdog.Results(); res != (core.Results{}) {
		t.Fatalf("networked healthy run produced detections: %+v", res)
	}
}

func TestChangedLimitPropagatesOverNetwork(t *testing.T) {
	v := newValidator(t, Options{WithNetworks: true})
	if err := v.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v.SetSpeedLimit(vehicle.KphToMs(50))
	if err := v.Run(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := vehicle.MsToKph(v.Long.Speed())
	if got > 55 {
		t.Fatalf("speed = %.1f km/h after lowering limit to 50", got)
	}
}

func TestInvalidTraceRunnableRejected(t *testing.T) {
	if _, err := New(Options{TraceRunnables: []string{"NoSuchRunnable"}}); err == nil {
		t.Fatal("unknown trace runnable accepted")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	v := newValidator(t, Options{})
	if err := v.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := v.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestNetworkedValidatorTolernatesLossyCAN(t *testing.T) {
	v := newValidator(t, Options{WithNetworks: true})
	// 20% of CAN frames corrupted: retransmission keeps the limit-command
	// path alive, at the cost of error frames and bus time.
	if err := v.Net.CANBus.SetBitErrorRate(0.2, 99); err != nil {
		t.Fatalf("SetBitErrorRate: %v", err)
	}
	v.SetSpeedLimit(vehicle.KphToMs(50))
	if err := v.Run(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := v.Net.CANBus.Stats()
	if st.ErrorFrames == 0 || st.Retransmissions == 0 {
		t.Fatalf("lossy bus produced no error frames: %+v", st)
	}
	if v.Net.LimitCommandsReceived() == 0 {
		t.Fatal("limit commands never survived the lossy bus")
	}
	// The vehicle still obeys the lowered limit.
	if got := vehicle.MsToKph(v.Long.Speed()); got > 55 {
		t.Fatalf("speed = %.1f km/h on lossy bus, want <= 55", got)
	}
	// And the watchdog stays quiet: network-level faults are handled by
	// the protocol, not misattributed to runnable timing.
	if res := v.Watchdog.Results(); res != (core.Results{}) {
		t.Fatalf("lossy bus produced watchdog detections: %+v", res)
	}
}

func TestKitchenSinkScenario(t *testing.T) {
	// Every optional subsystem at once: networks, remote ECU, hardware
	// watchdog, diagnostics, treatment and fallback. Healthy phase, then
	// a persistent central fault under the terminate policy.
	v := newValidator(t, Options{
		WithNetworks:         true,
		WithRemoteECU:        true,
		WithHardwareWatchdog: true,
		WithDiagnostics:      true,
		EnableTreatment:      true,
		EnableFallback:       true,
	})
	if err := v.FMF.SetPolicy(v.SafeSpeed.App, fmf.TerminateApp); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := v.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Healthy: nothing anywhere.
	if res := v.Watchdog.Results(); res != (core.Results{}) {
		t.Fatalf("central detections on healthy phase: %+v", res)
	}
	if v.HWWatchdog.Expiries() != 0 {
		t.Fatal("hardware watchdog fired on healthy phase")
	}
	// Central fault: SafeSpeed terminated, fallback engages; the other
	// subsystems stay healthy.
	branch := &inject.FlagFault{
		Label: "invalid-branch",
		Set:   func() { v.SafeSpeed.FaultBranch = 1 },
	}
	v.Injector.ApplyAt(6*sim.Second, branch)
	if err := v.Run(15 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.FallbackEngaged() {
		t.Fatal("fallback not engaged")
	}
	if got := vehicle.MsToKph(v.Long.Speed()); got > 62 {
		t.Fatalf("vehicle not governed in degraded mode: %.1f km/h", got)
	}
	if res := v.Remote.Watchdog.Results(); res != (core.Results{}) {
		t.Fatalf("remote ECU polluted by central fault: %+v", res)
	}
	if v.HWWatchdog.Expiries() != 0 {
		t.Fatal("hardware watchdog fired on a runnable-level fault")
	}
	if st, _ := v.OS.State(v.SteerByWire.Task); st == osek.Suspended {
		// Steer-by-wire keeps its 5ms loop through all of this (its
		// alarm keeps dispatching; Suspended is only transient between
		// activations, so sample executions instead).
		before := v.OS.ExecCount(v.SteerByWire.Vote)
		if err := v.Run(time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if v.OS.ExecCount(v.SteerByWire.Vote) <= before {
			t.Fatal("steer-by-wire stopped")
		}
	}
}
