package ingest

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swwd/internal/wire"
)

// BenchmarkIngestMT measures end-to-end ingestion throughput over real
// loopback UDP across the multi-socket design space: single vs
// SO_REUSEPORT listener groups, batched (recvmmsg) vs single-datagram
// receives, and the lock-stripe count. One iteration is one heartbeat
// frame of a 4-runnable reporter pushed by one of four concurrent
// sender flows. The interesting outputs are the custom metrics —
// frames/s (accepted aggregate rate) and delivered (accepted/sent
// ratio; loss under overload is legal UDP behaviour, so it is reported
// rather than asserted) — emitted into BENCH_ingest_mt.json for the
// benchdiff gate. Aggregate speedup of listeners=4 over listeners=1
// requires a multi-core runner; on one core the group still must not
// regress.
func BenchmarkIngestMT(b *testing.B) {
	for _, listeners := range []int{1, 4} {
		for _, batch := range []int{1, 32} {
			for _, shards := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("listeners=%d/batch=%d/shards=%d", listeners, batch, shards),
					func(b *testing.B) { benchIngestMT(b, listeners, batch, shards) })
			}
		}
	}
}

func benchIngestMT(b *testing.B, listeners, batch, shards int) {
	const nodes, rpn, senders = 256, 4, 4
	f := newFixture(b, nodes, rpn, WithListeners(listeners), WithBatchSize(batch), WithShards(shards))
	addr, err := f.Server.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer f.Server.Close()

	// Split b.N frames across the sender flows; each flow owns a
	// disjoint node subset so per-node sequence numbers stay monotonic.
	var sent atomic.Uint64
	var wg sync.WaitGroup
	b.ResetTimer()
	for sdr := 0; sdr < senders; sdr++ {
		share := b.N / senders
		if sdr < b.N%senders {
			share++
		}
		if share == 0 {
			continue
		}
		wg.Add(1)
		go func(sdr, share int) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr.String())
			if err != nil {
				b.Errorf("Dial: %v", err)
				return
			}
			defer conn.Close()
			frame := wire.Frame{Epoch: 1, IntervalMs: 100}
			for r := 0; r < rpn; r++ {
				frame.Beats = append(frame.Beats, wire.BeatRec{Runnable: uint32(r), Beats: 1})
			}
			own := make([]uint32, 0, nodes/senders)
			for n := sdr; n < nodes; n += senders {
				own = append(own, uint32(n))
			}
			seqs := make([]uint64, len(own))
			buf := make([]byte, 0, 128)
			for i := 0; i < share; i++ {
				k := i % len(own)
				seqs[k]++
				frame.Node = own[k]
				frame.Seq = seqs[k]
				var err error
				buf, err = wire.AppendFrame(buf[:0], &frame)
				if err != nil {
					b.Errorf("AppendFrame: %v", err)
					return
				}
				if _, err := conn.Write(buf); err == nil {
					sent.Add(1)
				}
			}
		}(sdr, share)
	}
	wg.Wait()

	// Quiesce: every datagram still in flight is either counted by a
	// listener or already lost in the kernel; wait for the frame counter
	// to go stable before stopping the clock.
	var last uint64
	stable := 0
	for stable < 10 {
		cur := f.Server.Stats().Frames
		if cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := b.Elapsed()
	b.StopTimer()

	// Overload shows up as loss (kernel drops, full queues, a dry free
	// list) and is reported via the delivered ratio — legal UDP
	// behaviour, not a failure. Only protocol errors are fatal.
	st := f.Server.Stats()
	if st.DecodeErrors != 0 || st.UnknownNode != 0 {
		b.Fatalf("ingest errors under benchmark load: %+v", st)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(st.Accepted)/elapsed.Seconds(), "frames/s")
	}
	if s := sent.Load(); s > 0 {
		b.ReportMetric(float64(st.Frames)/float64(s), "delivered")
	}
}
