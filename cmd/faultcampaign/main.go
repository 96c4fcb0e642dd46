// Command faultcampaign runs a configurable fault-injection campaign
// against the validator simulation and reports detection coverage and
// latency per fault class — the "further analysis of fault detection
// coverage" the paper's outlook calls for.
//
// Usage:
//
//	faultcampaign [-runs 20] [-horizon 5s] [-seed 1] [-class all|aliveness|arrival|flow|hang]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"swwd/internal/core"
	"swwd/internal/hil"
	"swwd/internal/inject"
	"swwd/internal/sim"
)

type classDef struct {
	name string
	kind core.ErrorKind
	// build creates the injection with an intensity drawn in [0,1); the
	// mapping from intensity to parameters is class-specific.
	build func(v *hil.Validator, intensity float64) inject.Injection
}

func classes() []classDef {
	return []classDef{
		{
			name: "aliveness",
			kind: core.AlivenessError,
			build: func(v *hil.Validator, x float64) inject.Injection {
				// scale 2..12
				return &inject.AlarmRateScale{OS: v.OS, Alarm: v.SafeSpeedAlarm, Scale: 2 + 10*x}
			},
		},
		{
			name: "arrival",
			kind: core.ArrivalRateError,
			build: func(v *hil.Validator, x float64) inject.Injection {
				// burst period 2..10ms
				period := time.Duration(2+8*x) * time.Millisecond
				return &inject.BurstDispatch{OS: v.OS, Task: v.SafeSpeed.Task, Period: period}
			},
		},
		{
			name: "flow",
			kind: core.ProgramFlowError,
			build: func(v *hil.Validator, _ float64) inject.Injection {
				return &inject.FlagFault{
					Label: "invalid-branch",
					Set:   func() { v.SafeSpeed.FaultBranch = 1 },
					Unset: func() { v.SafeSpeed.FaultBranch = 0 },
				}
			},
		},
		{
			name: "hang",
			kind: core.AlivenessError,
			build: func(v *hil.Validator, x float64) inject.Injection {
				// stretch 50x..250x
				return &inject.ExecStretch{OS: v.OS, Runnable: v.SafeSpeed.SAFECCProcess, Scale: 50 + 200*x}
			},
		},
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "faultcampaign: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	runs := flag.Int("runs", 20, "injections per fault class")
	horizon := flag.Duration("horizon", 5*time.Second, "observation window after injection")
	seed := flag.Int64("seed", 1, "campaign seed (injection instants and intensities)")
	classFilter := flag.String("class", "all", "fault class: all|aliveness|arrival|flow|hang")
	csvPath := flag.String("csv", "", "write per-run results to this CSV file")
	flag.Parse()
	if *runs <= 0 {
		return fmt.Errorf("runs must be positive")
	}

	var csvw *csv.Writer
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		csvw = csv.NewWriter(f)
		defer csvw.Flush()
		if err := csvw.Write([]string{"class", "run", "inject_at_ms", "intensity", "detected", "latency_ms"}); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	fmt.Printf("fault campaign: %d runs/class, horizon %v, seed %d\n\n", *runs, *horizon, *seed)
	fmt.Printf("%-10s %9s %9s %14s %14s %14s\n",
		"class", "detected", "coverage", "min latency", "mean latency", "max latency")

	for _, cd := range classes() {
		if *classFilter != "all" && *classFilter != cd.name {
			continue
		}
		detected := 0
		var minLat, maxLat, totalLat time.Duration
		for i := 0; i < *runs; i++ {
			at := sim.Time(500+rng.Intn(2500)) * sim.Millisecond
			intensity := rng.Float64()
			v, err := hil.New(hil.Options{})
			if err != nil {
				return err
			}
			v.Injector.ApplyAt(at, cd.build(v, intensity))
			if err := v.Run(at.Duration() + *horizon); err != nil {
				return err
			}
			first := v.FirstDetection(cd.kind)
			var lat time.Duration
			if first > 0 {
				detected++
				lat = first.Sub(at)
				totalLat += lat
				if minLat == 0 || lat < minLat {
					minLat = lat
				}
				if lat > maxLat {
					maxLat = lat
				}
			}
			if csvw != nil {
				if err := csvw.Write([]string{
					cd.name,
					strconv.Itoa(i),
					strconv.FormatInt(at.Duration().Milliseconds(), 10),
					strconv.FormatFloat(intensity, 'f', 3, 64),
					strconv.FormatBool(first > 0),
					strconv.FormatInt(lat.Milliseconds(), 10),
				}); err != nil {
					return err
				}
			}
		}
		coverage := float64(detected) / float64(*runs) * 100
		mean := time.Duration(0)
		if detected > 0 {
			mean = totalLat / time.Duration(detected)
		}
		fmt.Printf("%-10s %6d/%-2d %8.1f%% %14v %14v %14v\n",
			cd.name, detected, *runs, coverage, minLat, mean, maxLat)
	}
	fmt.Println("\nnote: latencies are dominated by the hypothesis window (aliveness/arrival")
	fmt.Println("are checked at period end); flow errors are event-triggered and detected")
	fmt.Println(strings.TrimSpace("within one task period."))
	return nil
}
