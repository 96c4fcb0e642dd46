// Command swwdmon runs the Software Watchdog as a standalone monitoring
// process for external programs: the monitored system is described by a
// JSON spec file (see swwd.Spec), heartbeats arrive as runnable names on
// stdin (one per line, e.g. piped from the supervised process's log), and
// detections and state changes are printed as they happen.
//
// Usage:
//
//	swwdmon -spec system.json [-duration 10s] [-quiet] [-metrics :8080]
//
// Example:
//
//	my-app --heartbeat-log /dev/stdout | swwdmon -spec system.json
//
// With -metrics the process additionally serves its live telemetry (see
// metrics.go): Prometheus text on /metrics, expvar JSON on /debug/vars
// and pprof on /debug/pprof:
//
//	swwdmon -spec system.json -metrics :8080 &
//	curl -s localhost:8080/metrics | grep swwd_
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"swwd"
)

// printSink streams watchdog output to stdout.
type printSink struct {
	mu    sync.Mutex
	quiet bool

	faults uint64
	states uint64
}

func (s *printSink) Fault(r swwd.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults++
	if !s.quiet {
		fmt.Printf("%v FAULT %s runnable=%d observed=%d expected=%d\n",
			time.Duration(r.Time), r.Kind, r.Runnable, r.Observed, r.Expected)
	}
}

func (s *printSink) StateChanged(e swwd.StateEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.states++
	fmt.Printf("%v STATE %s -> %s (cause %s)\n", time.Duration(e.Time), e.Scope, e.State, e.Cause)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "swwdmon: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	specPath := flag.String("spec", "", "path to the system spec (JSON)")
	duration := flag.Duration("duration", 0, "stop after this long (0 = until stdin closes)")
	quiet := flag.Bool("quiet", false, "suppress per-fault output, print state changes and the final summary only")
	metrics := flag.String("metrics", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	pushURL := flag.String("push-url", "", "POST the /metrics payload to this URL on an interval (push export sink)")
	pushInterval := flag.Duration("push-interval", 0, "push sink delivery cadence (0 = export default)")
	flag.Parse()
	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	f, err := os.Open(*specPath)
	if err != nil {
		return err
	}
	spec, err := swwd.LoadSpec(f)
	closeErr := f.Close()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}

	sink := &printSink{quiet: *quiet}
	sys, err := spec.Build(nil, sink)
	if err != nil {
		return err
	}
	svc, err := swwd.NewService(sys.Watchdog, 0)
	if err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		return err
	}
	defer svc.Stop()
	fmt.Printf("monitoring %d runnables, cycle %v\n", sys.Model.NumRunnables(), sys.Watchdog.CyclePeriod())

	if *metrics != "" || *pushURL != "" {
		ms := newMetricsServer(svc, sys)
		if *pushURL != "" {
			if ms.push, err = ms.exp.StartPush(*pushURL, *pushInterval); err != nil {
				return err
			}
			defer ms.push.Stop()
			fmt.Printf("pushing metrics to %s\n", *pushURL)
		}
		if *metrics != "" {
			go func() {
				if err := ms.serve(*metrics); err != nil {
					fmt.Fprintf(os.Stderr, "swwdmon: metrics server: %v\n", err)
				}
			}()
			fmt.Printf("metrics on %s (/metrics, /healthz, /debug/vars, /debug/pprof)\n", *metrics)
		}
	}

	done := make(chan error, 1)
	go func() {
		scanner := bufio.NewScanner(os.Stdin)
		for scanner.Scan() {
			sys.Heartbeat(scanner.Text())
		}
		done <- scanner.Err()
	}()

	if *duration > 0 {
		select {
		case err := <-done:
			if err != nil {
				return err
			}
		case <-time.After(*duration):
		}
	} else if err := <-done; err != nil {
		return err
	}

	res := sys.Watchdog.Results()
	fmt.Printf("summary: aliveness=%d arrival-rate=%d program-flow=%d\n",
		res.Aliveness, res.ArrivalRate, res.ProgramFlow)
	return nil
}
