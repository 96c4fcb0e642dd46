package wire

import "testing"

// BenchmarkWireDecode measures the per-frame decode cost on the
// steady-state path (retained Frame, reused slices). The benchdiff CI
// gate holds this to 0 allocs/op.
func BenchmarkWireDecode(b *testing.B) {
	buf := mustEncode(b, sampleFrame())
	var f Frame
	if err := DecodeFrame(buf, &f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeFrame(buf, &f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncode measures AppendFrame into a reused buffer.
func BenchmarkWireEncode(b *testing.B) {
	f := sampleFrame()
	buf, err := AppendFrame(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		if buf, err = AppendFrame(buf, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeWide measures the decode of the widest frame in
// steady use: a 256-runnable node flushing every beat record, with
// two-byte varints, and 1,024 one-byte flow records (wideFrame).
func BenchmarkWireDecodeWide(b *testing.B) {
	buf := mustEncode(b, wideFrame())
	var f Frame
	if err := DecodeFrame(buf, &f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeFrame(buf, &f); err != nil {
			b.Fatal(err)
		}
	}
}
