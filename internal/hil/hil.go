// Package hil assembles the EASIS architecture validator (§4.1): the
// central node (an ECU running the SafeSpeed, SafeLane and Steer-by-Wire
// applications on the OSEK model, with the Software Watchdog and the Fault
// Management Framework integrated), the driving-dynamics and environment
// simulation, and — optionally — the CAN / FlexRay / TCP-IP domains joined
// by a gateway node. The recorder samples the watchdog counters every
// cycle, reproducing the ControlDesk plots of Figs. 5 and 6.
package hil

import (
	"errors"
	"fmt"
	"time"

	"swwd/internal/apps"
	"swwd/internal/core"
	"swwd/internal/fmf"
	"swwd/internal/hwwd"
	"swwd/internal/inject"
	"swwd/internal/osek"
	"swwd/internal/reconfig"
	"swwd/internal/runnable"
	"swwd/internal/sim"
	"swwd/internal/trace"
	"swwd/internal/vehicle"
)

// Options configure a validator instance.
type Options struct {
	// CyclePeriod is the Software Watchdog monitoring cycle; zero means
	// 10ms, the tick of the paper's plots.
	CyclePeriod time.Duration
	// Thresholds for the TSI unit; zero value uses the paper's 3.
	Thresholds core.Thresholds
	// DisableCorrelation turns off the Fig. 6 collaboration (ablation).
	DisableCorrelation bool
	// EagerArrivalCheck enables the immediate arrival-rate trip
	// (ablation).
	EagerArrivalCheck bool
	// ECUFaultyAppCount propagates to the watchdog's ECU-state policy.
	ECUFaultyAppCount int
	// AllowECUReset lets the FMF perform the §3.5 software reset.
	AllowECUReset bool
	// EnableTreatment attaches the FMF's treatment executor; without it
	// the framework records faults but does not act (the detection-only
	// setup used for the counter-trace figures).
	EnableTreatment bool
	// DriverTargetKph is the driver's desired speed; zero means 150.
	DriverTargetKph float64
	// SpeedLimitKph is the externally commanded maximum; zero means 80.
	SpeedLimitKph float64
	// WithNetworks wires the CAN/FlexRay/Ethernet buses and the gateway
	// node into the loop (the speed-limit command then travels
	// telematics → gateway → CAN instead of being read directly).
	WithNetworks bool
	// WithRemoteECU adds a second ECU on the shared CAN bus with its own
	// OSEK instance and Software Watchdog; its fault reports travel over
	// CAN to the central node (requires WithNetworks).
	WithRemoteECU bool
	// WithHardwareWatchdog adds the ECU hardware watchdog (200ms timeout)
	// serviced by a lowest-priority kick task — the whole-ECU layer the
	// Software Watchdog supplements (§2).
	WithHardwareWatchdog bool
	// WithDiagnostics adds the low-priority diagnostics task sharing the
	// sensor-bus resource with SafeSpeed (priority-ceiling protocol) —
	// the substrate for the category-1 resource-blocking fault.
	WithDiagnostics bool
	// EnableFallback registers the limp-home degraded mode for SafeSpeed
	// (the outlook's dynamic reconfiguration): when the FMF terminates
	// the faulty SafeSpeed application, a simpler low-rate task takes
	// over and holds the vehicle at FallbackSpeedKph.
	EnableFallback bool
	// FallbackSpeedKph is the limp-home speed cap; zero means 60.
	FallbackSpeedKph float64
	// TraceRunnables lists model runnable names whose counters are
	// sampled; nil traces the SafeSpeed runnables.
	TraceRunnables []string
}

// Validator is one assembled instance of the architecture validator.
type Validator struct {
	Kernel   *sim.Kernel
	Model    *runnable.Model
	OS       *osek.OS
	Watchdog *core.Watchdog
	FMF      *fmf.Framework
	Recorder *trace.Recorder
	Injector *inject.Scheduler

	SafeSpeed   *apps.SafeSpeed
	SafeLane    *apps.SafeLane
	SteerByWire *apps.SteerByWire

	// Dispatch alarms, exposed as injection targets.
	SafeSpeedAlarm   osek.AlarmID
	SafeLaneAlarm    osek.AlarmID
	SteerByWireAlarm osek.AlarmID

	Long *vehicle.Longitudinal
	Lat  *vehicle.Lateral

	Net *Network // nil unless Options.WithNetworks

	// Remote is the second ECU; nil unless Options.WithRemoteECU.
	Remote *RemoteECU

	// Hardware-watchdog entities exist when WithHardwareWatchdog.
	HWWatchdog     *hwwd.Watchdog
	HWKickApp      runnable.AppID
	HWKickTask     runnable.TaskID
	HWKickRunnable runnable.ID

	// Diagnostics entities exist when WithDiagnostics.
	DiagApp      runnable.AppID
	DiagTask     runnable.TaskID
	DiagRunnable runnable.ID
	DiagAlarm    osek.AlarmID
	SensorBus    osek.ResourceID

	// Reconfig and the limp-home entities exist when EnableFallback.
	Reconfig         *reconfig.Manager
	FallbackApp      runnable.AppID
	FallbackTask     runnable.TaskID
	FallbackRunnable runnable.ID
	fallbackAlarm    osek.AlarmID
	limp             *limpHome

	opts       Options
	speedLimit float64
	traced     []runnable.ID
	started    bool
	// firstDetection is the time of the first report of each error
	// kind, taken from the FMF's notification stream.
	firstDetection map[core.ErrorKind]sim.Time
}

// OSEKExecutor adapts the OS admin services to the FMF Executor
// interface.
type OSEKExecutor struct{ OS *osek.OS }

var _ fmf.Executor = OSEKExecutor{}

// RestartTask restarts the task.
func (e OSEKExecutor) RestartTask(tid runnable.TaskID) error { return e.OS.RestartTask(tid) }

// TerminateTask stops the task's dispatch alarms, otherwise the next
// expiry would simply re-activate it, and then terminates it.
func (e OSEKExecutor) TerminateTask(tid runnable.TaskID) error {
	for _, aid := range e.OS.AlarmsActivating(tid) {
		if armed, err := e.OS.AlarmArmed(aid); err == nil && armed {
			if err := e.OS.CancelAlarm(aid); err != nil {
				return err
			}
		}
	}
	return e.OS.ForceTerminate(tid)
}

// ResetECU performs the software reset.
func (e OSEKExecutor) ResetECU() error {
	e.OS.ResetECU()
	return nil
}

// New assembles a validator.
func New(opts Options) (*Validator, error) {
	if opts.CyclePeriod <= 0 {
		opts.CyclePeriod = 10 * time.Millisecond
	}
	if opts.EnableFallback && !opts.EnableTreatment {
		return nil, errors.New("hil: EnableFallback requires EnableTreatment (the FMF issues the reconfiguration triggers)")
	}
	if opts.DriverTargetKph <= 0 {
		opts.DriverTargetKph = 150
	}
	if opts.SpeedLimitKph <= 0 {
		opts.SpeedLimitKph = 80
	}
	v := &Validator{
		Kernel:         sim.NewKernel(),
		Model:          runnable.NewModel(),
		opts:           opts,
		firstDetection: make(map[core.ErrorKind]sim.Time),
	}
	v.speedLimit = vehicle.KphToMs(opts.SpeedLimitKph)

	var err error
	if v.Long, err = vehicle.NewLongitudinal(vehicle.DefaultLongitudinalParams()); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	if v.Lat, err = vehicle.NewLateral(vehicle.DefaultLateralParams()); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}

	desired, err := vehicle.NewProfile(vehicle.KphToMs(opts.DriverTargetKph))
	if err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	// Gentle steering profile so SafeLane sees activity without constant
	// departure: drift pulses between 20s and 25s of scenario time.
	steer, err := vehicle.NewProfile(0,
		vehicle.Segment{Until: 20 * time.Second, Value: 0},
		vehicle.Segment{Until: 25 * time.Second, Value: 0.001},
	)
	if err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	driver, err := vehicle.NewDriver(desired, steer, 0.5)
	if err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	now := func() time.Duration { return v.Kernel.Now().Duration() }

	if v.SafeSpeed, err = apps.NewSafeSpeed(v.Model, apps.SafeSpeedConfig{
		Plant:    v.Long,
		Driver:   driver,
		MaxSpeed: func() float64 { return v.speedLimit },
		Now:      now,
	}); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	if v.SafeLane, err = apps.NewSafeLane(v.Model, apps.SafeLaneConfig{Plant: v.Lat}); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	if v.SteerByWire, err = apps.NewSteerByWire(v.Model, apps.SteerByWireConfig{
		Driver: driver,
		Now:    now,
	}); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	if opts.EnableFallback {
		if err := v.registerFallback(); err != nil {
			return nil, err
		}
	}
	if opts.WithDiagnostics {
		if err := v.registerDiagnostics(); err != nil {
			return nil, err
		}
	}
	if opts.WithHardwareWatchdog {
		if err := v.registerHardwareWatchdog(); err != nil {
			return nil, err
		}
	}
	if err := v.Model.Freeze(); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}

	if v.OS, err = osek.New(osek.Config{Model: v.Model, Kernel: v.Kernel}); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	if opts.WithDiagnostics {
		// Must precede SafeSpeed.Register: the sensor-bus guard is baked
		// into the task program.
		if err := v.wireDiagnostics(); err != nil {
			return nil, err
		}
	}
	if v.SafeSpeedAlarm, err = v.SafeSpeed.Register(v.OS); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	if v.SafeLaneAlarm, err = v.SafeLane.Register(v.OS); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	if v.SteerByWireAlarm, err = v.SteerByWire.Register(v.OS); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}

	// Fault Management Framework first (it is the watchdog's sink).
	fmfCfg := fmf.Config{
		Model:         v.Model,
		Clock:         v.Kernel,
		AllowECUReset: opts.AllowECUReset,
	}
	if opts.EnableTreatment {
		fmfCfg.Exec = OSEKExecutor{OS: v.OS}
		fmfCfg.Defer = func(f func()) { v.Kernel.After(0, f) }
	}
	if v.FMF, err = fmf.New(fmfCfg); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	v.FMF.Subscribe(func(n fmf.Notification) {
		if r := n.Report; r != nil {
			if _, seen := v.firstDetection[r.Kind]; !seen {
				v.firstDetection[r.Kind] = r.Time
			}
		}
	})

	if v.Watchdog, err = core.New(core.Config{
		Model:              v.Model,
		Clock:              v.Kernel,
		Sink:               v.FMF,
		CyclePeriod:        opts.CyclePeriod,
		Thresholds:         opts.Thresholds,
		EagerArrivalCheck:  opts.EagerArrivalCheck,
		DisableCorrelation: opts.DisableCorrelation,
		ECUFaultyAppCount:  opts.ECUFaultyAppCount,
		// The journal is the fault record the tools print from.
		JournalSize: 1024,
	}); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	// Close the FMF↔watchdog loop: treatments clear the TSI state of the
	// treated tasks.
	v.FMF.SetMonitor(v.Watchdog)

	if err := v.configureWatchdog(); err != nil {
		return nil, err
	}

	if v.Recorder, err = trace.NewRecorder(v.Kernel); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	if v.Injector, err = inject.NewScheduler(v.Kernel); err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}

	if opts.EnableFallback {
		if err := v.wireFallback(); err != nil {
			return nil, err
		}
	}
	if opts.WithHardwareWatchdog {
		if err := v.wireHardwareWatchdog(); err != nil {
			return nil, err
		}
	}

	if err := v.resolveTraced(); err != nil {
		return nil, err
	}
	if opts.WithNetworks {
		if v.Net, err = newNetwork(v); err != nil {
			return nil, fmt.Errorf("hil: %w", err)
		}
	}
	if opts.WithRemoteECU {
		if v.Remote, err = newRemoteECU(v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// configureWatchdog installs the glue code, hypotheses, flow table and
// activation statuses for all three applications.
func (v *Validator) configureWatchdog() error {
	// Aliveness indication glue: every runnable completion reports a
	// heartbeat (§3.4 "automatically generated glue code"). The glue
	// pre-registers one Monitor handle per runnable so the per-beat path
	// is the lock-free handle fast path rather than the bounds-checked
	// compat wrapper.
	monitors := make([]*core.Monitor, v.Model.NumRunnables())
	for rid := range monitors {
		m, err := v.Watchdog.Register(runnable.ID(rid))
		if err != nil {
			return fmt.Errorf("hil: %w", err)
		}
		monitors[rid] = m
	}
	v.OS.AddObserver(osek.ObserverFuncs{OnRunnableEnd: func(rid runnable.ID, _ runnable.TaskID) {
		monitors[rid].Beat()
	}})
	type app interface {
		FlowSequence() []runnable.ID
		Hypothesis(time.Duration) map[runnable.ID]core.Hypothesis
	}
	var b core.Batch
	for _, a := range []app{v.SafeSpeed, v.SafeLane, v.SteerByWire} {
		for rid, h := range a.Hypothesis(v.opts.CyclePeriod) {
			b.SetHypothesis(rid, h)
			b.Activate(rid)
		}
		if err := v.Watchdog.AddFlowSequence(a.FlowSequence()...); err != nil {
			return fmt.Errorf("hil: %w", err)
		}
	}
	if err := v.Watchdog.Apply(&b); err != nil {
		return fmt.Errorf("hil: %w", err)
	}
	return nil
}

func (v *Validator) resolveTraced() error {
	names := v.opts.TraceRunnables
	if names == nil {
		names = []string{"GetSensorValue", "SAFE_CC_process", "Speed_process"}
	}
	for _, name := range names {
		rid, ok := v.Model.Lookup(name)
		if !ok {
			return fmt.Errorf("hil: unknown trace runnable %q", name)
		}
		v.traced = append(v.traced, rid)
	}
	return nil
}

// Start launches the OS, the plant/environment nodes and the watchdog
// cycle alarm.
func (v *Validator) Start() error {
	if v.started {
		return errors.New("hil: already started")
	}
	// The watchdog's time-triggered units run off an OSEK alarm, as a
	// service integrated with the operating system (§3.1).
	if _, err := v.OS.CreateAlarm("WatchdogCycle",
		osek.CallbackAlarm(func() {
			v.Watchdog.Cycle()
			v.sample()
		}),
		true, v.opts.CyclePeriod, v.opts.CyclePeriod); err != nil {
		return fmt.Errorf("hil: %w", err)
	}
	if err := v.OS.Start(); err != nil {
		return fmt.Errorf("hil: %w", err)
	}
	// Driving-dynamics node: integrate the plants at 10ms.
	const plantStep = 10 * time.Millisecond
	v.Kernel.Every(0, plantStep, func() bool {
		throttle, brake := v.SafeSpeed.Controls()
		if v.FallbackEngaged() {
			// Degraded mode: the limp-home governor owns the actuators.
			throttle, brake = v.limp.Controls()
		}
		v.Long.Step(plantStep, throttle, brake)
		v.Lat.Step(plantStep, v.Long.Speed(), v.SteerByWire.SteerCommand(), 0)
		return true
	})
	if v.Net != nil {
		if err := v.Net.start(); err != nil {
			return err
		}
	}
	if v.HWWatchdog != nil {
		if err := v.HWWatchdog.Start(); err != nil {
			return err
		}
	}
	if v.Remote != nil {
		if err := v.Remote.start(); err != nil {
			return err
		}
	}
	v.started = true
	return nil
}

// sample records the Fig. 5 / Fig. 6 series at the current cycle.
func (v *Validator) sample() {
	for _, rid := range v.traced {
		r, err := v.Model.Runnable(rid)
		if err != nil {
			continue
		}
		c, err := v.Watchdog.CounterSnapshot(rid)
		if err != nil {
			continue
		}
		v.Recorder.Record(r.Name+".AC", float64(c.AC))
		v.Recorder.Record(r.Name+".CCA", float64(c.CCA))
		v.Recorder.Record(r.Name+".ARC", float64(c.ARC))
		v.Recorder.Record(r.Name+".CCAR", float64(c.CCAR))
	}
	res := v.Watchdog.Results()
	v.Recorder.Record("AM Result", float64(res.Aliveness))
	v.Recorder.Record("AR Result", float64(res.ArrivalRate))
	v.Recorder.Record("PFC Result", float64(res.ProgramFlow))
	taskState, err := v.Watchdog.TaskState(v.SafeSpeed.Task)
	if err == nil {
		// 0 = OK, 1 = faulty, matching the step in Fig. 6's last lane.
		val := 0.0
		if taskState == core.StateFaulty {
			val = 1
		}
		v.Recorder.Record("TaskState", val)
	}
	v.Recorder.Record("speed_kph", vehicle.MsToKph(v.Long.Speed()))
	v.Recorder.Record("limit_kph", vehicle.MsToKph(v.speedLimit))
}

// Run advances the scenario by d.
func (v *Validator) Run(d time.Duration) error {
	if !v.started {
		if err := v.Start(); err != nil {
			return err
		}
	}
	return v.Kernel.Run(v.Kernel.Now().Add(d))
}

// SetSpeedLimit changes the externally commanded maximum (m/s). With
// networks enabled the command is placed at the telematics source and
// reaches the central node over the gateway path; without networks it
// takes effect directly.
func (v *Validator) SetSpeedLimit(ms float64) {
	if v.Net != nil {
		v.Net.command = ms
		return
	}
	v.speedLimit = ms
}

// FirstDetection reports when the watchdog first reported an error of
// the kind, or zero if it has not.
func (v *Validator) FirstDetection(kind core.ErrorKind) sim.Time {
	return v.firstDetection[kind]
}

// SpeedLimit reports the commanded maximum in m/s.
func (v *Validator) SpeedLimit() float64 { return v.speedLimit }
