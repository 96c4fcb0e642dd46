package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The frames in testdata were written by an earlier build's encoder and
// are never regenerated. Every header field holds a distinct value and
// the records mix one- to five-byte varints, so a field that moves,
// resizes or changes its encoding changes the bytes.

// corpusHeartbeat is the content of testdata/heartbeat-v3.bin.
var corpusHeartbeat = Frame{
	Node:        0x0a0b0c0d,
	Epoch:       1_760_000_000_123_456_789,
	Seq:         70_001,
	CmdAckEpoch: 1_759_999_999_000_000_007,
	CmdAckSeq:   300,
	IntervalMs:  100,
	Beats: []BeatRec{
		{Runnable: 0, Beats: 1},
		{Runnable: 127, Beats: 128},
		{Runnable: 16_384, Beats: 70_000},
		{Runnable: MaxRunnableIndex, Beats: MaxBeatsPerRecord},
	},
	Flow: []uint32{5, 200, 16_383, MaxRunnableIndex},
}

// corpusCommand is the content of testdata/command-v3.bin: every CmdOp,
// node-wide and per runnable.
var corpusCommand = Command{
	Node:  0x01020304,
	Epoch: 1_760_000_000_987_654_321,
	Seq:   129,
	Recs: []CmdRec{
		{Op: CmdQuarantine, Runnable: CmdNodeTarget},
		{Op: CmdResume, Runnable: CmdNodeTarget},
		{Op: CmdRestart, Runnable: 300},
		{Op: CmdSetHypothesis, Runnable: 7, Hyp: HypothesisParams{
			AlivenessCycles: 1, MinHeartbeats: 200, ArrivalCycles: 70_000, MaxArrivals: 0xFFFFFFFF,
		}},
		{Op: CmdQuarantine, Runnable: 0},
	},
}

func readCorpus(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

// TestFrozenFrames decodes each frozen frame to the expected values and
// re-encodes it byte for byte. It pins the v3 wire layout: reporters
// and servers of different builds share it, so a layout change needs a
// new Version instead of an edit here or to the files.
func TestFrozenFrames(t *testing.T) {
	data := readCorpus(t, "heartbeat-v3.bin")
	var f Frame
	if err := DecodeFrame(data, &f); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(f, corpusHeartbeat) {
		t.Fatalf("decoded heartbeat:\n got %+v\nwant %+v", f, corpusHeartbeat)
	}
	if enc := mustEncode(t, &corpusHeartbeat); !bytes.Equal(enc, data) {
		t.Fatalf("re-encoded heartbeat differs from the frozen file:\n got %x\nwant %x", enc, data)
	}

	data = readCorpus(t, "command-v3.bin")
	var c Command
	if err := DecodeCommand(data, &c); err != nil {
		t.Fatalf("DecodeCommand: %v", err)
	}
	if !reflect.DeepEqual(c, corpusCommand) {
		t.Fatalf("decoded command:\n got %+v\nwant %+v", c, corpusCommand)
	}
	if enc := mustEncodeCommand(t, &corpusCommand); !bytes.Equal(enc, data) {
		t.Fatalf("re-encoded command differs from the frozen file:\n got %x\nwant %x", enc, data)
	}
}
