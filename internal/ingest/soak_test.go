// Loopback soak, smoke tier: a full simulated fleet — soakNodes
// swwdclient reporters of soakRunnables runnables each — beats through
// real UDP sockets into one ingestion server for soakDuration, with the
// watchdog sweeping on its real-time Service driver. (The scaled tier
// lives in soak_mt_test.go: 100k synthetic nodes through the
// multi-socket read path; this tier keeps per-node swwdclient reporters
// so the client library is exercised too.) Halfway through, one client
// is killed; the test asserts the paper's distributed aliveness story
// end to end:
//
//   - steady state is silent: zero decode errors, zero sequence gaps,
//     zero duplicate drops, zero dropped packets, zero detections;
//   - the dead node's link runnable raises its first aliveness fault
//     within the grace window of the kill, and exactly one fault exists
//     at that moment (one detection per monitoring window, not a storm);
//   - the fault is visible in the journal and in the rendered /metrics
//     exposition;
//   - every detection over the whole run is attributed to the dead
//     node's runnables — no false positives on healthy nodes.
//
// The scale constants live in soak_scale_*_test.go: the race build
// shrinks the fleet so the instrumented runtime still finishes quickly.
package ingest_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"swwd"
	"swwd/internal/core"
	"swwd/internal/export"
	"swwd/internal/fleet"
	"swwd/swwdclient"
)

func TestIngestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		interval    = 100 * time.Millisecond
		cycle       = 10 * time.Millisecond
		graceFrames = 3
		beatEvery   = 25 * time.Millisecond
	)
	window := time.Duration(graceFrames) * interval

	fl, err := fleet.Build(fleet.Config{
		Nodes:            soakNodes,
		RunnablesPerNode: soakRunnables,
		Interval:         interval,
		CyclePeriod:      cycle,
		GraceFrames:      graceFrames,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	addr, err := fl.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer fl.Server.Close()

	// Start the reporters first so every node has frames in flight
	// before the watchdog begins counting silence.
	stopBeats := make(chan struct{})
	var wg sync.WaitGroup
	clients := make([]*swwdclient.Client, soakNodes)
	for n := 0; n < soakNodes; n++ {
		c, err := swwdclient.Dial(addr.String(),
			swwdclient.WithNode(uint32(n)),
			swwdclient.WithRunnables(soakRunnables),
			swwdclient.WithInterval(interval))
		if err != nil {
			t.Fatalf("Dial node %d: %v", n, err)
		}
		clients[n] = c
		wg.Add(1)
		go func(c *swwdclient.Client) {
			defer wg.Done()
			tick := time.NewTicker(beatEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopBeats:
					return
				case <-tick.C:
					for r := 0; r < soakRunnables; r++ {
						c.Beat(r)
					}
				}
			}
		}(c)
	}
	closeAll := func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}
	defer closeAll()

	// Every node must have reported at least once before sweeps begin.
	deadline := time.Now().Add(10 * time.Second)
	for fl.Server.Stats().Accepted < uint64(soakNodes) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet warm-up timed out: stats %+v", fl.Server.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	svc, err := swwd.NewService(fl.Watchdog, cycle)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = svc.Stop()
		}
	}()

	// First half: the healthy fleet must stay detection-free.
	time.Sleep(soakDuration / 2)
	if res := fl.Watchdog.Results(); res != (core.Results{}) {
		t.Fatalf("detections on a healthy fleet: %+v", res)
	}

	// Kill one reporter mid-soak: its beat goroutine keeps ticking into
	// a closed client (harmless), but no further frames leave the node.
	victim := soakNodes / 2
	victimLink := fl.Specs[victim].Link
	killed := time.Now()
	_ = clients[victim].Close()
	clients[victim] = nil

	// The link fault must appear within the grace window (plus up to one
	// window for a beat already banked when the kill landed, plus
	// scheduling slack on a loaded runner) — and be exactly one fault
	// when first observed: one detection per window, not a storm.
	bound := 2*window + 2*time.Second
	var linkFaults uint64
	for {
		linkFaults, _, _, err = fl.Watchdog.RunnableErrors(victimLink)
		if err != nil {
			t.Fatalf("RunnableErrors: %v", err)
		}
		if linkFaults > 0 {
			break
		}
		if time.Since(killed) > bound {
			t.Fatalf("no link aliveness fault within %v of killing node %d", bound, victim)
		}
		time.Sleep(5 * time.Millisecond)
	}
	latency := time.Since(killed)
	if linkFaults != 1 {
		t.Fatalf("first observation saw %d link faults, want exactly 1", linkFaults)
	}
	if latency > bound {
		t.Fatalf("link fault took %v, want <= %v", latency, bound)
	}
	t.Logf("link aliveness fault on node %d after %v (window %v)", victim, latency, window)

	// Second half: the rest of the fleet soaks on around the corpse.
	time.Sleep(soakDuration / 2)
	_ = svc.Stop() // stop sweeping before reporters wind down
	stopped = true
	close(stopBeats)
	wg.Wait()
	closeAll()

	// The wire stayed clean end to end.
	st := fl.Server.Stats()
	if st.DecodeErrors != 0 || st.UnknownNode != 0 || st.SeqGaps != 0 ||
		st.DuplicateDrops != 0 || st.DroppedPackets != 0 ||
		st.NodeRestarts != 0 || st.StaleEpochDrops != 0 || st.IntervalMismatch != 0 {
		t.Fatalf("wire errors during soak: %+v", st)
	}
	minFrames := uint64(soakNodes) * uint64(soakDuration/interval) / 2
	if st.Accepted < minFrames {
		t.Fatalf("accepted only %d frames, want >= %d", st.Accepted, minFrames)
	}

	// Every detection is attributed to the dead node.
	for n, spec := range fl.Specs {
		rids := append([]swwd.RunnableID{spec.Link}, spec.Runnables...)
		for _, rid := range rids {
			a, ar, pf, err := fl.Watchdog.RunnableErrors(rid)
			if err != nil {
				t.Fatalf("RunnableErrors(%d): %v", rid, err)
			}
			if n != victim && (a != 0 || ar != 0 || pf != 0) {
				t.Fatalf("healthy node %d runnable %d faulted: aliveness=%d arrival=%d flow=%d",
					n, rid, a, ar, pf)
			}
		}
	}

	// The fault is journaled against the link runnable...
	var journaled bool
	for _, e := range fl.Watchdog.Journal() {
		if e.Kind == core.AlivenessError && e.Runnable == victimLink {
			journaled = true
			break
		}
	}
	if !journaled {
		t.Fatal("no aliveness journal entry for the dead node's link runnable")
	}

	// ...and visible in the rendered /metrics exposition.
	var buf bytes.Buffer
	snap := svc.Snapshot()
	export.WriteSnapshot(&buf, &snap, fl.Names)
	export.WriteIngest(&buf, st)
	needle := fmt.Sprintf("swwd_runnable_faults_total{runnable=%q,kind=\"aliveness\"}", fl.Names[int(victimLink)])
	if !strings.Contains(buf.String(), needle+" ") {
		t.Fatalf("metrics exposition lacks %s", needle)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, needle) && strings.HasSuffix(line, " 0") {
			t.Fatalf("metrics exposition reports zero link faults: %s", line)
		}
	}
}
