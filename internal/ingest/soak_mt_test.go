//go:build !race

// Scaled soak: the million-node-track ingestion path — SO_REUSEPORT
// listener group, recvmmsg batching, run-to-completion read loops —
// under a synthetic fleet far beyond what per-node swwdclient
// goroutines can simulate.
// Four paced sender flows synthesize frames for every node directly
// (one encoder per flow, disjoint node ranges, monotonic per-node
// sequence numbers), so the test scales by frame rate instead of by
// goroutine count.
//
// Two tiers share every assertion:
//
//   - the default tier (a few thousand nodes) runs in plain `go test`
//     as part of tier-1;
//   - SWWD_SOAK_SCALE=1 (the `make soak-scale` target and the CI soak
//     job) raises the fleet to 100k nodes on a 2s flush interval —
//     50k frames/s aggregate — which only fits the un-raced runtime.
//
// Mid-soak, three victim nodes go silent; the test asserts the wire
// stayed perfect (zero decode errors, duplicate drops, dropped packets
// or exhausted buffers at any tier) and the only faults in the system
// are the injected aliveness faults on the victims' runnables.
package ingest_test

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swwd"
	"swwd/internal/core"
	"swwd/internal/fleet"
	"swwd/internal/wire"
)

func TestIngestScaledSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled soak skipped in -short mode")
	}
	// Default tier: small enough for tier-1. Scale tier: 100k nodes.
	nodes, interval, cycle := 2000, 500*time.Millisecond, 25*time.Millisecond
	if os.Getenv("SWWD_SOAK_SCALE") == "1" {
		// 100k nodes on a 5s flush interval: 20k frames/s aggregate,
		// sustained (the senders spread each pass across the whole
		// interval — see chunkFrames below).
		nodes, interval, cycle = 100_000, 5*time.Second, 250*time.Millisecond
	}
	const (
		senders     = 4
		graceFrames = 3
		victims     = 3
	)
	window := time.Duration(graceFrames) * interval

	fl, err := fleet.Build(fleet.Config{
		Nodes:            nodes,
		RunnablesPerNode: 1,
		Interval:         interval,
		CyclePeriod:      cycle,
		GraceFrames:      graceFrames,
		Listeners:        4,
		BatchSize:        32,
		Shards:           8,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	addr, err := fl.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer fl.Server.Close()

	// dead[n] silences node n; senders skip it from the next round on.
	dead := make([]atomic.Bool, nodes)
	stop := make(chan struct{})
	var maxPassNs atomic.Int64 // slowest full sender pass, for the log
	var wg sync.WaitGroup
	for sdr := 0; sdr < senders; sdr++ {
		wg.Add(1)
		go func(sdr int) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr.String())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer conn.Close()
			own := make([]uint32, 0, nodes/senders+1)
			for n := sdr; n < nodes; n += senders {
				own = append(own, uint32(n))
			}
			seqs := make([]uint64, len(own))
			frame := wire.Frame{Epoch: 1, IntervalMs: uint32(interval / time.Millisecond),
				Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}}}
			buf := make([]byte, 0, 64)
			// Pace WITHIN the pass, not only between passes: one UDP flow
			// hashes to a single socket of the reuseport group, and a
			// flat-out pass of tens of thousands of frames overruns that
			// socket's kernel receive buffer — the kernel drops the
			// overflow silently and healthy nodes read as silent. Sending
			// in small chunks on sub-interval deadlines keeps the burst
			// depth bounded by chunkFrames regardless of fleet size.
			const chunkFrames = 250
			for {
				start := time.Now()
				for base := 0; base < len(own); base += chunkFrames {
					end := base + chunkFrames
					if end > len(own) {
						end = len(own)
					}
					for k := base; k < end; k++ {
						n := own[k]
						if dead[n].Load() {
							continue
						}
						seqs[k]++
						frame.Node = n
						frame.Seq = seqs[k]
						var err error
						buf, err = wire.AppendFrame(buf[:0], &frame)
						if err != nil {
							t.Errorf("AppendFrame: %v", err)
							return
						}
						_, _ = conn.Write(buf)
					}
					// This chunk's share of the interval ends at
					// end/len(own) of it; sleep off whatever remains.
					due := start.Add(interval * time.Duration(end) / time.Duration(len(own)))
					if rest := time.Until(due); rest > 0 {
						select {
						case <-stop:
							return
						case <-time.After(rest):
						}
					} else {
						select {
						case <-stop:
							return
						default:
						}
					}
				}
				if pass := time.Since(start); int64(pass) > maxPassNs.Load() {
					maxPassNs.Store(int64(pass))
				}
			}
		}(sdr)
	}
	defer func() { close(stop); wg.Wait() }()

	// Warm-up: every node reports at least once before sweeps begin.
	warmStart := time.Now()
	deadline := warmStart.Add(2*interval + 30*time.Second)
	for fl.Server.Stats().Accepted < uint64(nodes) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet warm-up timed out: stats %+v", fl.Server.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("%d nodes warm in %v", nodes, time.Since(warmStart))

	svc, err := swwd.NewService(fl.Watchdog, cycle)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer svc.Stop()

	// Healthy window: a full grace window with every node beating must
	// stay detection-free.
	time.Sleep(window + window/2)
	if res := fl.Watchdog.Results(); res != (core.Results{}) {
		t.Fatalf("detections on a healthy fleet: %+v", res)
	}

	// Silence three victims spread across the sender ranges.
	victimIDs := []int{nodes / 5, nodes / 2, nodes - 1}
	killed := time.Now()
	for _, v := range victimIDs {
		dead[v].Store(true)
	}

	// Every victim's link fault must land within the grace window (plus
	// one window for a beat banked pre-kill, plus slack for a loaded
	// runner at the 100k tier).
	bound := 2*window + 10*time.Second
	for _, v := range victimIDs {
		link := fl.Specs[v].Link
		for {
			faults, _, _, err := fl.Watchdog.RunnableErrors(link)
			if err != nil {
				t.Fatalf("RunnableErrors: %v", err)
			}
			if faults >= 1 {
				break
			}
			if time.Since(killed) > bound {
				t.Fatalf("no link fault on victim node %d within %v", v, bound)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Logf("all %d victim link faults within %v (window %v)", victims, time.Since(killed), window)

	// Let the survivors soak one more window around the corpses, then
	// stop sweeping before the senders wind down.
	time.Sleep(window)
	_ = svc.Stop()

	elapsed := time.Since(warmStart)
	st := fl.Server.Stats()
	t.Logf("soak: %d frames accepted in %v (%.0f frames/s), listeners=%d, slowest pass %v",
		st.Accepted, elapsed, float64(st.Accepted)/elapsed.Seconds(), st.Listeners,
		time.Duration(maxPassNs.Load()))

	// The wire stayed perfect end to end at either tier.
	if st.DecodeErrors != 0 || st.UnknownNode != 0 || st.DuplicateDrops != 0 ||
		st.BuffersExhausted != 0 || st.DroppedPackets != 0 ||
		st.NodeRestarts != 0 || st.StaleEpochDrops != 0 || st.IntervalMismatch != 0 {
		t.Fatalf("wire errors during soak: %+v", st)
	}

	// Exactly the injected faults: every detection attributes to a
	// victim's runnables, and every victim faulted.
	isVictim := make(map[int]bool, victims)
	for _, v := range victimIDs {
		isVictim[v] = true
	}
	for n, spec := range fl.Specs {
		if isVictim[n] {
			continue
		}
		rids := append([]swwd.RunnableID{spec.Link}, spec.Runnables...)
		for _, rid := range rids {
			a, ar, pf, err := fl.Watchdog.RunnableErrors(rid)
			if err != nil {
				t.Fatalf("RunnableErrors(%d): %v", rid, err)
			}
			if a != 0 || ar != 0 || pf != 0 {
				t.Fatalf("healthy node %d runnable %d faulted: aliveness=%d arrival=%d flow=%d",
					n, rid, a, ar, pf)
			}
		}
	}
}
