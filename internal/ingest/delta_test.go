package ingest

import (
	"reflect"
	"testing"
)

func TestStatsDelta(t *testing.T) {
	prev := Stats{
		Counters: Counters{
			Frames: 100, Bytes: 3200, Accepted: 90, DecodeErrors: 1,
			UnknownNode: 2, SeqGaps: 3, SeqGapEvents: 1, DuplicateDrops: 4,
			NodeRestarts: 1, StaleEpochDrops: 2, IntervalMismatch: 1,
			DroppedPackets: 5, BuffersExhausted: 1, ReadErrors: 1,
			CommandsSent: 10, CommandsAcked: 9, CommandsDropped: 1,
			CommandStaleAcks: 1,
		},
		Nodes: 4, Listeners: 2,
	}
	cur := Stats{
		Counters: Counters{
			Frames: 150, Bytes: 4800, Accepted: 138, DecodeErrors: 1,
			UnknownNode: 2, SeqGaps: 7, SeqGapEvents: 2, DuplicateDrops: 4,
			NodeRestarts: 2, StaleEpochDrops: 2, IntervalMismatch: 1,
			DroppedPackets: 6, BuffersExhausted: 1, ReadErrors: 1,
			CommandsSent: 13, CommandsAcked: 12, CommandsDropped: 1,
			CommandStaleAcks: 2,
		},
		Nodes: 5, Listeners: 2,
	}
	want := Stats{
		Counters: Counters{
			Frames: 50, Bytes: 1600, Accepted: 48, DecodeErrors: 0,
			UnknownNode: 0, SeqGaps: 4, SeqGapEvents: 1, DuplicateDrops: 0,
			NodeRestarts: 1, StaleEpochDrops: 0, IntervalMismatch: 0,
			DroppedPackets: 1, BuffersExhausted: 0, ReadErrors: 0,
			CommandsSent: 3, CommandsAcked: 3, CommandsDropped: 0,
			CommandStaleAcks: 1,
		},
		Nodes: 5, Listeners: 2, // gauges carried, not differenced
	}
	if got := cur.Delta(prev); !reflect.DeepEqual(got, want) {
		t.Fatalf("Delta = %+v, want %+v", got, want)
	}
	// Adding the delta back to prev rebuilds cur's counters.
	sum := prev.Counters
	sum.Add(want.Counters)
	if sum != cur.Counters {
		t.Fatalf("prev + delta = %+v, want %+v", sum, cur.Counters)
	}
	// A delta against itself is zero counters with carried gauges.
	zero := cur.Delta(cur)
	if !zero.IsZero() || zero.Nodes != cur.Nodes || zero.Listeners != cur.Listeners {
		t.Fatalf("self-delta = %+v", zero)
	}
}
