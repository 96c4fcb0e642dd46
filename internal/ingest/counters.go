// Name-indexed access to the Stats counters: the test hook the chaos
// campaign engine (internal/chaos) builds its oracles on. An oracle
// asserts *exactly which* ingestion counters a fault campaign moved —
// "a duplication storm moves duplicate_drops and nothing else" — and
// doing that by field would couple every campaign to the Stats struct
// shape. The string names double as the stable vocabulary campaigns
// are written and reported in. Most equal the swwd_ingest_* metric
// family of internal/export with the prefix and _total suffix
// stripped; seq_gaps and seq_gap_events are the exceptions, exported as
// swwd_ingest_sequence_gaps_total and swwd_ingest_sequence_gap_events_total.
package ingest

// CounterNames lists every name Stats.Counter resolves, in the Stats
// declaration order. Gauges (nodes, listeners) are excluded: oracles
// reason about campaign-window deltas, and differencing a gauge is
// meaningless.
func CounterNames() []string {
	return []string{
		"frames",
		"bytes",
		"accepted",
		"decode_errors",
		"unknown_node",
		"seq_gaps",
		"seq_gap_events",
		"duplicate_drops",
		"node_restarts",
		"stale_epoch_drops",
		"interval_mismatch",
		"dropped_packets",
		"buffers_exhausted",
		"read_errors",
		"commands_sent",
		"commands_acked",
		"commands_dropped",
		"command_stale_acks",
	}
}

// Counter resolves one counter by name. The second result reports
// whether the name is known; asking for an unknown name is a campaign
// authoring bug the caller should surface, never a zero.
func (s Stats) Counter(name string) (uint64, bool) {
	switch name {
	case "frames":
		return s.Frames, true
	case "bytes":
		return s.Bytes, true
	case "accepted":
		return s.Accepted, true
	case "decode_errors":
		return s.DecodeErrors, true
	case "unknown_node":
		return s.UnknownNode, true
	case "seq_gaps":
		return s.SeqGaps, true
	case "seq_gap_events":
		return s.SeqGapEvents, true
	case "duplicate_drops":
		return s.DuplicateDrops, true
	case "node_restarts":
		return s.NodeRestarts, true
	case "stale_epoch_drops":
		return s.StaleEpochDrops, true
	case "interval_mismatch":
		return s.IntervalMismatch, true
	case "dropped_packets":
		return s.DroppedPackets, true
	case "buffers_exhausted":
		return s.BuffersExhausted, true
	case "read_errors":
		return s.ReadErrors, true
	case "commands_sent":
		return s.CommandsSent, true
	case "commands_acked":
		return s.CommandsAcked, true
	case "commands_dropped":
		return s.CommandsDropped, true
	case "command_stale_acks":
		return s.CommandStaleAcks, true
	}
	return 0, false
}
