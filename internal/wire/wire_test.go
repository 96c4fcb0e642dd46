package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// sampleFrame builds a representative frame: a 10-runnable node with a
// few flow events and a command ack, the shape one swwdclient flush
// produces.
func sampleFrame() *Frame {
	f := &Frame{
		Node: 42, Epoch: 1700000000, Seq: 7,
		CmdAckEpoch: 1700000099, CmdAckSeq: 3,
		IntervalMs: 100,
	}
	for i := uint32(0); i < 10; i++ {
		f.Beats = append(f.Beats, BeatRec{Runnable: i, Beats: 3 + i})
	}
	f.Flow = []uint32{0, 1, 2, 0, 1, 2}
	return f
}

// wideFrame builds the frame of a 256-runnable node flushing every beat
// record and a repeated four-runnable flow sequence: runnables 0–255 and
// counts 128–1024 take two-byte varints, the 1,024 flow records one
// byte each.
func wideFrame() *Frame {
	f := &Frame{Node: 7, Epoch: 1700000000, Seq: 9, IntervalMs: 20}
	for i := uint32(0); i < 256; i++ {
		f.Beats = append(f.Beats, BeatRec{Runnable: i, Beats: 128 + i*37%897})
	}
	for i := uint32(0); i < 1024; i++ {
		f.Flow = append(f.Flow, i%4)
	}
	return f
}

// rawHeader hand-encodes a valid heartbeat header promising nBeats beat
// and nFlow flow records, for payloads AppendFrame refuses to produce.
func rawHeader(nBeats, nFlow int) []byte {
	b := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint16(b[0:2], Magic)
	b[2] = Version
	b[3] = KindHeartbeat
	binary.LittleEndian.PutUint32(b[4:8], 1)
	binary.LittleEndian.PutUint64(b[8:16], 1)  // epoch
	binary.LittleEndian.PutUint64(b[16:24], 1) // seq
	binary.LittleEndian.PutUint32(b[40:44], 100)
	binary.LittleEndian.PutUint16(b[44:46], uint16(nBeats))
	binary.LittleEndian.PutUint16(b[46:48], uint16(nFlow))
	return b
}

func mustEncode(t testing.TB, f *Frame) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	in := sampleFrame()
	buf := mustEncode(t, in)
	var out Frame
	if err := DecodeFrame(buf, &out); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	assertFramesEqual(t, in, &out)
}

func TestRoundTripEmptySections(t *testing.T) {
	// A frame with no beats, no flow and no ack yet is the link-only
	// heartbeat an idle node still flushes every interval.
	in := &Frame{Node: 1, Epoch: 1, Seq: 99, IntervalMs: 250}
	buf := mustEncode(t, in)
	if len(buf) != HeaderSize {
		t.Fatalf("empty frame = %d bytes, want %d", len(buf), HeaderSize)
	}
	var out Frame
	// Pre-dirty the reused slices to prove they are truncated.
	out.Beats = append(out.Beats, BeatRec{5, 5})
	out.Flow = append(out.Flow, 9)
	if err := DecodeFrame(buf, &out); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	assertFramesEqual(t, in, &out)
}

func TestPeekNode(t *testing.T) {
	buf := mustEncode(t, sampleFrame())
	node, err := PeekNode(buf)
	if err != nil || node != 42 {
		t.Fatalf("PeekNode = %d, %v; want 42, nil", node, err)
	}
	if _, err := PeekNode(buf[:CommandHeaderSize-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short PeekNode err = %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := PeekNode(bad); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad-magic PeekNode err = %v, want ErrMagic", err)
	}
	// PeekNode routes on the shared header prefix, so it accepts command
	// frames too — the full decoders enforce the kind.
	cmd, err := AppendCommand(nil, &Command{Node: 7, Epoch: 1, Seq: 1})
	if err != nil {
		t.Fatalf("AppendCommand: %v", err)
	}
	node, err = PeekNode(cmd)
	if err != nil || node != 7 {
		t.Fatalf("PeekNode(command) = %d, %v; want 7, nil", node, err)
	}
}

// TestDecodeTruncated chops the encoded frame at every possible length;
// each prefix must fail cleanly (never panic, never succeed).
func TestDecodeTruncated(t *testing.T) {
	buf := mustEncode(t, sampleFrame())
	var f Frame
	for cut := 0; cut < len(buf); cut++ {
		if err := DecodeFrame(buf[:cut], &f); err == nil {
			t.Fatalf("decode of %d-byte prefix (of %d) succeeded", cut, len(buf))
		}
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	base := mustEncode(t, sampleFrame())
	mut := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), base...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"magic", mut(func(b []byte) { b[0] = 0 }), ErrMagic},
		{"version", mut(func(b []byte) { b[2] = 9 }), ErrVersion},
		// Version-1 and version-2 frames (pre-kind layouts) must be
		// rejected cleanly.
		{"version-1", mut(func(b []byte) { b[2] = 1 }), ErrVersion},
		{"version-2", mut(func(b []byte) { b[2] = 2 }), ErrVersion},
		// A command frame is not a heartbeat; an unknown kind is neither.
		{"kind-command", mut(func(b []byte) { b[3] = KindCommand }), ErrKind},
		{"kind-unknown", mut(func(b []byte) { b[3] = 7 }), ErrKind},
		{"zero-epoch", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[8:16], 0) }), ErrRange},
		{"zero-seq", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 0) }), ErrRange},
		// An ack sequence number without an ack epoch is inconsistent.
		{"ack-seq-no-epoch", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[24:32], 0) }), ErrRange},
		{"zero-interval", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[40:44], 0) }), ErrRange},
		{"trailing", append(append([]byte(nil), base...), 0x00), ErrTrailing},
		// An inflated count walks the parser off the real records into
		// (or past) the remaining payload; any clean protocol error is
		// acceptable (nil want), panicking or succeeding is not.
		{"count-beyond-payload", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[44:46], 0xFFFF) }), nil},
		{"oversize", make([]byte, MaxFrameSize+1), ErrTooLarge},
	}
	var f Frame
	for _, tc := range cases {
		err := DecodeFrame(tc.buf, &f)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeRangeErrors(t *testing.T) {
	// Hand-encode payload values beyond the protocol caps: AppendFrame
	// refuses to produce them, so build the frames manually.
	var f Frame

	// Beat runnable index beyond MaxRunnableIndex.
	b := rawHeader(1, 0)
	b = binary.AppendUvarint(b, MaxRunnableIndex+1)
	b = binary.AppendUvarint(b, 1)
	if err := DecodeFrame(b, &f); !errors.Is(err, ErrRange) {
		t.Errorf("oversized beat runnable: err = %v, want ErrRange", err)
	}

	// Zero beat count.
	b = rawHeader(1, 0)
	b = binary.AppendUvarint(b, 3)
	b = binary.AppendUvarint(b, 0)
	if err := DecodeFrame(b, &f); !errors.Is(err, ErrRange) {
		t.Errorf("zero beat count: err = %v, want ErrRange", err)
	}

	// Beat count beyond MaxBeatsPerRecord.
	b = rawHeader(1, 0)
	b = binary.AppendUvarint(b, 3)
	b = binary.AppendUvarint(b, MaxBeatsPerRecord+1)
	if err := DecodeFrame(b, &f); !errors.Is(err, ErrRange) {
		t.Errorf("oversized beat count: err = %v, want ErrRange", err)
	}

	// Flow runnable index beyond MaxRunnableIndex.
	b = rawHeader(0, 1)
	b = binary.AppendUvarint(b, MaxRunnableIndex+1)
	if err := DecodeFrame(b, &f); !errors.Is(err, ErrRange) {
		t.Errorf("oversized flow runnable: err = %v, want ErrRange", err)
	}

	// Overlong (>64-bit) varint.
	b = rawHeader(1, 0)
	b = append(b, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	if err := DecodeFrame(b, &f); !errors.Is(err, ErrRange) {
		t.Errorf("varint overflow: err = %v, want ErrRange", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	var errs []error
	for _, f := range []*Frame{
		{Node: 1, Epoch: 0, Seq: 1, IntervalMs: 100},
		{Node: 1, Epoch: 1, Seq: 1, IntervalMs: 0},
		{Node: 1, Epoch: 1, Seq: 1, IntervalMs: 100, CmdAckSeq: 5},
		{Node: 1, Epoch: 1, Seq: 1, IntervalMs: 100, Beats: []BeatRec{{Runnable: MaxRunnableIndex + 1, Beats: 1}}},
		{Node: 1, Epoch: 1, Seq: 1, IntervalMs: 100, Beats: []BeatRec{{Runnable: 1, Beats: 0}}},
		{Node: 1, Epoch: 1, Seq: 1, IntervalMs: 100, Flow: []uint32{MaxRunnableIndex + 1}},
	} {
		out, err := AppendFrame(nil, f)
		errs = append(errs, err)
		if len(out) != 0 {
			t.Errorf("AppendFrame returned %d bytes alongside error %v", len(out), err)
		}
	}
	for i, err := range errs {
		if !errors.Is(err, ErrRange) {
			t.Errorf("case %d: err = %v, want ErrRange", i, err)
		}
	}
}

// TestMaxSizeFrameRoundTrip drives the encoder to its size ceiling: the
// largest frame AppendFrame accepts must decode back bit-identically.
func TestMaxSizeFrameRoundTrip(t *testing.T) {
	in := &Frame{Node: 9, Epoch: 1, Seq: 1, IntervalMs: 1000}
	// ~5000 worst-case beat records (≤10 bytes each) stay under the cap.
	for i := 0; i < 5000; i++ {
		in.Beats = append(in.Beats, BeatRec{
			Runnable: uint32(i % (MaxRunnableIndex + 1)),
			Beats:    MaxBeatsPerRecord,
		})
	}
	for i := 0; i < 2000; i++ {
		in.Flow = append(in.Flow, uint32(i%500))
	}
	buf := mustEncode(t, in)
	if len(buf) > MaxFrameSize {
		t.Fatalf("encoded %d bytes > MaxFrameSize", len(buf))
	}
	var out Frame
	if err := DecodeFrame(buf, &out); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	assertFramesEqual(t, in, &out)

	// One more record pushes past MaxFrameSize → ErrTooLarge.
	big := *in
	for i := 0; i < 4000; i++ {
		big.Beats = append(big.Beats, BeatRec{Runnable: MaxRunnableIndex, Beats: MaxBeatsPerRecord})
	}
	if _, err := AppendFrame(nil, &big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize encode err = %v, want ErrTooLarge", err)
	}
}

// TestDecodeReuseZeroAlloc pins the steady-state cost contract: decoding
// into a retained Frame allocates nothing.
func TestDecodeReuseZeroAlloc(t *testing.T) {
	buf := mustEncode(t, sampleFrame())
	var f Frame
	if err := DecodeFrame(buf, &f); err != nil { // warm the slices
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeFrame(buf, &f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeFrame allocates %.1f/op, want 0", allocs)
	}
}

// TestDecodeCountAmplification sends a header-only frame promising
// 65,535 beat and 65,535 flow records: it must fail as truncated without
// allocating, even into a fresh Frame, so the decoder sizes its slices
// by the payload and never by the header's counts.
func TestDecodeCountAmplification(t *testing.T) {
	buf := rawHeader(0xFFFF, 0xFFFF)
	allocs := testing.AllocsPerRun(100, func() {
		var f Frame
		if err := DecodeFrame(buf, &f); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rejecting the frame allocates %.1f/op, want 0", allocs)
	}
}

func assertFramesEqual(t *testing.T, want, got *Frame) {
	t.Helper()
	if got.Node != want.Node || got.Epoch != want.Epoch || got.Seq != want.Seq || got.IntervalMs != want.IntervalMs {
		t.Fatalf("header mismatch: got %d/%d/%d/%d want %d/%d/%d/%d",
			got.Node, got.Epoch, got.Seq, got.IntervalMs, want.Node, want.Epoch, want.Seq, want.IntervalMs)
	}
	if got.CmdAckEpoch != want.CmdAckEpoch || got.CmdAckSeq != want.CmdAckSeq {
		t.Fatalf("ack mismatch: got %d/%d want %d/%d",
			got.CmdAckEpoch, got.CmdAckSeq, want.CmdAckEpoch, want.CmdAckSeq)
	}
	if len(got.Beats) != len(want.Beats) {
		t.Fatalf("beat count %d, want %d", len(got.Beats), len(want.Beats))
	}
	for i := range want.Beats {
		if got.Beats[i] != want.Beats[i] {
			t.Fatalf("beat %d = %+v, want %+v", i, got.Beats[i], want.Beats[i])
		}
	}
	if len(got.Flow) != len(want.Flow) {
		t.Fatalf("flow count %d, want %d", len(got.Flow), len(want.Flow))
	}
	for i := range want.Flow {
		if got.Flow[i] != want.Flow[i] {
			t.Fatalf("flow %d = %d, want %d", i, got.Flow[i], want.Flow[i])
		}
	}
}

// FuzzWireRoundTrip fuzzes both directions: structured inputs round-trip
// bit-identically through encode→decode, and DecodeFrame never panics on
// the raw encoded bytes however the fuzzer mutates them (the corpus seeds
// valid frames; mutation explores the hostile space).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(mustEncode(f, sampleFrame()))
	f.Add(mustEncode(f, &Frame{Node: 1, Epoch: 1, Seq: 1, IntervalMs: 1}))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := DecodeFrame(data, &fr); err != nil {
			return // invalid input rejected cleanly: fine
		}
		// Valid frames must re-encode and decode to the same value.
		out, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		var fr2 Frame
		if err := DecodeFrame(out, &fr2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		assertFramesEqual(t, &fr, &fr2)
	})
}

// FuzzWireRandomFrames drives the generator side: pseudo-random valid
// frames must encode and round-trip. The fuzzer picks the shape seed.
func FuzzWireRandomFrames(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nBeats, nFlow uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := &Frame{
			Node:       rng.Uint32(),
			Epoch:      rng.Uint64()>>1 + 1,
			Seq:        rng.Uint64()>>1 + 1,
			IntervalMs: rng.Uint32()>>1 + 1,
		}
		if rng.Intn(2) == 1 {
			in.CmdAckEpoch = rng.Uint64()>>1 + 1
			in.CmdAckSeq = rng.Uint64() >> 1
		}
		for i := 0; i < int(nBeats); i++ {
			in.Beats = append(in.Beats, BeatRec{
				Runnable: uint32(rng.Intn(MaxRunnableIndex + 1)),
				Beats:    uint32(rng.Intn(MaxBeatsPerRecord)) + 1,
			})
		}
		for i := 0; i < int(nFlow); i++ {
			in.Flow = append(in.Flow, uint32(rng.Intn(MaxRunnableIndex+1)))
		}
		buf, err := AppendFrame(nil, in)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		var out Frame
		if err := DecodeFrame(buf, &out); err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		assertFramesEqual(t, in, &out)
	})
}

// decodeFrameRef is the record decoder DecodeFrame replaced, kept as the
// reference of FuzzDecodeFrameEquivalent: binary.Uvarint for every
// varint and an append per record.
func decodeFrameRef(buf []byte, f *Frame) error {
	if len(buf) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(buf))
	}
	if len(buf) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	if binary.LittleEndian.Uint16(buf[0:2]) != Magic {
		return ErrMagic
	}
	if buf[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, buf[2])
	}
	if buf[3] != KindHeartbeat {
		return fmt.Errorf("%w: 0x%02x", ErrKind, buf[3])
	}
	f.Node = binary.LittleEndian.Uint32(buf[4:8])
	f.Epoch = binary.LittleEndian.Uint64(buf[8:16])
	f.Seq = binary.LittleEndian.Uint64(buf[16:24])
	f.CmdAckEpoch = binary.LittleEndian.Uint64(buf[24:32])
	f.CmdAckSeq = binary.LittleEndian.Uint64(buf[32:40])
	f.IntervalMs = binary.LittleEndian.Uint32(buf[40:44])
	if f.Epoch == 0 {
		return fmt.Errorf("%w: zero session epoch", ErrRange)
	}
	if f.Seq == 0 {
		return fmt.Errorf("%w: zero sequence number", ErrRange)
	}
	if f.CmdAckEpoch == 0 && f.CmdAckSeq != 0 {
		return fmt.Errorf("%w: command ack seq without epoch", ErrRange)
	}
	if f.IntervalMs == 0 {
		return fmt.Errorf("%w: zero interval", ErrRange)
	}
	nBeats := int(binary.LittleEndian.Uint16(buf[44:46]))
	nFlow := int(binary.LittleEndian.Uint16(buf[46:48]))
	f.Beats = f.Beats[:0]
	f.Flow = f.Flow[:0]
	p := buf[HeaderSize:]
	uvarintRef := func(what string) (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			if n == 0 {
				return 0, fmt.Errorf("%w: %s", ErrTruncated, what)
			}
			return 0, fmt.Errorf("%w: %s varint overflow", ErrRange, what)
		}
		p = p[n:]
		return v, nil
	}
	for i := 0; i < nBeats; i++ {
		rid, err := uvarintRef("beat runnable")
		if err != nil {
			return err
		}
		beats, err := uvarintRef("beat count")
		if err != nil {
			return err
		}
		if rid > MaxRunnableIndex {
			return fmt.Errorf("%w: beat record %d runnable %d", ErrRange, i, rid)
		}
		if beats == 0 || beats > MaxBeatsPerRecord {
			return fmt.Errorf("%w: beat record %d count %d", ErrRange, i, beats)
		}
		f.Beats = append(f.Beats, BeatRec{Runnable: uint32(rid), Beats: uint32(beats)})
	}
	for i := 0; i < nFlow; i++ {
		rid, err := uvarintRef("flow runnable")
		if err != nil {
			return err
		}
		if rid > MaxRunnableIndex {
			return fmt.Errorf("%w: flow record %d runnable %d", ErrRange, i, rid)
		}
		f.Flow = append(f.Flow, uint32(rid))
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(p))
	}
	return nil
}

// decodeSentinels are the error classes DecodeFrame can return.
var decodeSentinels = []error{ErrMagic, ErrVersion, ErrKind, ErrTruncated, ErrRange, ErrTrailing, ErrTooLarge}

// FuzzDecodeFrameEquivalent requires DecodeFrame to decide every input
// exactly as decodeFrameRef does: the same accept or reject, the same
// error class and message, and an equal Frame on accept — decoding into
// a fresh Frame and into a reused one whose slices hold stale records.
func FuzzDecodeFrameEquivalent(f *testing.F) {
	f.Add(mustEncode(f, wideFrame()))
	f.Add(mustEncode(f, sampleFrame()))
	// Non-minimal varints, which binary.Uvarint accepts: runnable 0 as
	// 0x80 0x00, count 1 as 0x81 0x00, flow runnable 0 in three bytes.
	f.Add(append(rawHeader(1, 1), 0x80, 0x00, 0x81, 0x00, 0x80, 0x80, 0x00))
	// MaxRunnableIndex takes three bytes; one more is out of range.
	top := binary.AppendUvarint(rawHeader(1, 2), MaxRunnableIndex)
	top = binary.AppendUvarint(top, MaxBeatsPerRecord)
	top = binary.AppendUvarint(top, MaxRunnableIndex)
	f.Add(binary.AppendUvarint(top, MaxRunnableIndex+1))
	// An 11-byte varint overflows 64 bits.
	f.Add(append(rawHeader(1, 0), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01))
	// Headers promising more records than the payload holds, the
	// second with a zero count ahead of the truncation: ErrRange wins.
	more := mustEncode(f, sampleFrame())
	binary.LittleEndian.PutUint16(more[44:46], 0xFFFF)
	f.Add(more)
	f.Add(append(rawHeader(3, 0), 5, 0, 6))
	f.Add(rawHeader(0xFFFF, 0xFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref, got Frame
		errRef := decodeFrameRef(data, &ref)
		err := DecodeFrame(data, &got)
		stale := Frame{Beats: make([]BeatRec, 300), Flow: make([]uint32, 2000)}
		for i := range stale.Beats {
			stale.Beats[i] = BeatRec{Runnable: 9, Beats: 9}
		}
		errStale := DecodeFrame(data, &stale)
		if (errRef == nil) != (err == nil) || (err == nil) != (errStale == nil) {
			t.Fatalf("reference err = %v, DecodeFrame err = %v (fresh), %v (reused)", errRef, err, errStale)
		}
		if errRef != nil {
			for _, e := range []error{err, errStale} {
				if e.Error() != errRef.Error() {
					t.Fatalf("err = %q, reference %q", e, errRef)
				}
				for _, s := range decodeSentinels {
					if errors.Is(e, s) != errors.Is(errRef, s) {
						t.Fatalf("err = %v, reference %v: disagree on %v", e, errRef, s)
					}
				}
			}
			return
		}
		assertFramesEqual(t, &ref, &got)
		assertFramesEqual(t, &ref, &stale)
	})
}
