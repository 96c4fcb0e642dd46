// Command validator runs one scenario on the EASIS architecture validator
// simulation: the central node with SafeSpeed, SafeLane and Steer-by-Wire
// under Software Watchdog supervision, optionally with the full
// CAN/FlexRay/telematics topology and fault treatment enabled, and an
// error injection of choice.
//
// Usage:
//
//	validator [-duration 10s] [-networks] [-treatment] [-ecu-reset]
//	          [-inject none|aliveness|arrival|flow|hang] [-inject-at 2s]
//	          [-limit-kph 80] [-driver-kph 150] [-csv trace.csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"swwd/internal/core"
	"swwd/internal/experiments"
	"swwd/internal/hil"
	"swwd/internal/inject"
	"swwd/internal/sim"
	"swwd/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "validator: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	duration := flag.Duration("duration", 10*time.Second, "scenario length (virtual time)")
	networks := flag.Bool("networks", false, "wire the CAN/FlexRay/telematics topology")
	treatment := flag.Bool("treatment", false, "enable FMF fault treatment")
	ecuReset := flag.Bool("ecu-reset", false, "allow the ECU software reset treatment")
	remote := flag.Bool("remote", false, "add a second ECU on the CAN bus (requires -networks)")
	hwWatchdog := flag.Bool("hw-watchdog", false, "add the ECU hardware watchdog layer")
	fallback := flag.Bool("fallback", false, "enable the limp-home fallback (requires -treatment)")
	diagnostics := flag.Bool("diagnostics", false, "add the diagnostics task sharing the sensor-bus resource")
	injectKind := flag.String("inject", "none", "error injection: none|aliveness|arrival|flow|loopcount|hang")
	injectAt := flag.Duration("inject-at", 2*time.Second, "injection instant")
	canErrorRate := flag.Float64("can-error-rate", 0, "fraction of CAN frames corrupted (requires -networks)")
	limitKph := flag.Float64("limit-kph", 80, "commanded maximum speed")
	driverKph := flag.Float64("driver-kph", 150, "driver's desired speed")
	csvPath := flag.String("csv", "", "write the recorded trace to this CSV file")
	flag.Parse()

	v, err := hil.New(hil.Options{
		WithNetworks:         *networks,
		EnableTreatment:      *treatment,
		AllowECUReset:        *ecuReset,
		WithRemoteECU:        *remote,
		WithHardwareWatchdog: *hwWatchdog,
		EnableFallback:       *fallback,
		WithDiagnostics:      *diagnostics,
		SpeedLimitKph:        *limitKph,
		DriverTargetKph:      *driverKph,
	})
	if err != nil {
		return err
	}

	var injection inject.Injection
	switch *injectKind {
	case "none":
	case "aliveness":
		injection = &inject.AlarmRateScale{OS: v.OS, Alarm: v.SafeSpeedAlarm, Scale: 8}
	case "arrival":
		injection = &inject.BurstDispatch{OS: v.OS, Task: v.SafeSpeed.Task, Period: 5 * time.Millisecond}
	case "flow":
		injection = &inject.FlagFault{
			Label: "invalid-branch",
			Set:   func() { v.SafeSpeed.FaultBranch = 1 },
			Unset: func() { v.SafeSpeed.FaultBranch = 0 },
		}
	case "loopcount":
		injection = &inject.FlagFault{
			Label: "loop-counter-0",
			Set:   func() { v.SafeLane.FilterIterations = 0 },
			Unset: func() { v.SafeLane.FilterIterations = 1 },
		}
	case "hang":
		injection = &inject.ExecStretch{OS: v.OS, Runnable: v.SafeSpeed.SAFECCProcess, Scale: 200}
	default:
		return fmt.Errorf("unknown injection %q", *injectKind)
	}
	if injection != nil {
		v.Injector.ApplyAt(sim.Time(*injectAt), injection)
		fmt.Printf("arming %s at %v\n", injection.Name(), *injectAt)
	}
	if *canErrorRate > 0 {
		if v.Net == nil {
			return fmt.Errorf("-can-error-rate requires -networks")
		}
		if err := v.Net.CANBus.SetBitErrorRate(*canErrorRate, 1); err != nil {
			return err
		}
		fmt.Printf("CAN bit error rate: %.1f%%\n", *canErrorRate*100)
	}

	if err := v.Run(*duration); err != nil {
		return err
	}

	fmt.Printf("\nscenario complete at %v\n", v.Kernel.Now())
	fmt.Printf("vehicle:   speed %.1f km/h (limit %.1f), distance %.0f m\n",
		vehicle.MsToKph(v.Long.Speed()), vehicle.MsToKph(v.SpeedLimit()), v.Long.Distance())
	res := v.Watchdog.Results()
	fmt.Printf("watchdog:  cycles=%d AM=%d AR=%d PFC=%d\n",
		v.Watchdog.CycleCount(), res.Aliveness, res.ArrivalRate, res.ProgramFlow)
	printState := func(name string, st core.HealthState, err error) {
		if err == nil {
			fmt.Printf("TSI:       %s = %v\n", name, st)
		}
	}
	st, err2 := v.Watchdog.TaskState(v.SafeSpeed.Task)
	printState("SafeSpeedTask", st, err2)
	st, err2 = v.Watchdog.TaskState(v.SafeLane.Task)
	printState("SafeLaneTask", st, err2)
	st, err2 = v.Watchdog.TaskState(v.SteerByWire.Task)
	printState("SteerByWireTask", st, err2)
	fmt.Printf("ECU state: %v (resets: %d)\n", v.Watchdog.ECUState(), v.OS.ResetCount())

	if faults := v.Watchdog.Journal(); len(faults) > 0 {
		fmt.Printf("\nfault log (%d entries, showing up to 10):\n", len(faults))
		for i, f := range faults {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(faults)-10)
				break
			}
			r := core.Report{
				Cycle: f.Cycle, Kind: f.Kind, Runnable: f.Runnable, Task: f.Task,
				Observed: f.Observed, Expected: f.Expected, Predecessor: f.Predecessor,
			}
			fmt.Printf("  %v %s\n", f.Time, r)
		}
	}
	if trs := v.FMF.Treatments(); len(trs) > 0 {
		fmt.Printf("\ntreatments (%d):\n", len(trs))
		for _, tr := range trs {
			fmt.Printf("  %v %v (cause %v, err %v)\n", tr.Time, tr.Action, tr.Cause, tr.Err)
		}
	}
	if *networks && v.Net != nil {
		fmt.Printf("\nnetwork:   CAN frames=%d (util %.1f%%), FlexRay static frames=%d, gateway unrouted=%d\n",
			v.Net.CANBus.Stats().FramesDelivered, 100*v.Net.CANBus.Utilization(),
			v.Net.FRBus.Stats().StaticFrames, v.Net.Gateway.Unrouted())
	}
	if v.Remote != nil {
		fmt.Printf("remote:    detections=%+v, reports received centrally=%d\n",
			v.Remote.Watchdog.Results(), len(v.Net.RemoteFaults()))
	}
	if v.HWWatchdog != nil {
		fmt.Printf("hw wd:     kicks=%d expiries=%d\n", v.HWWatchdog.Kicks(), v.HWWatchdog.Expiries())
	}
	if v.Reconfig != nil {
		fmt.Printf("fallback:  engaged=%v executions=%d\n", v.FallbackEngaged(), v.FallbackExecutions())
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *csvPath, err)
		}
		defer f.Close()
		if err := v.Recorder.WriteCSV(f, experiments.Tick); err != nil {
			return fmt.Errorf("write %s: %w", *csvPath, err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	return nil
}
