// The ingest counter set, declared once. Counters holds every counter
// field; its json tags are the counters' names, and Fields lists them
// in declaration order, which is also the order the WAL's delta record
// stores them in (internal/wal). Differencing (Stats.Delta), summing
// (Counters.Add) and name lookup (Counter, CounterNames) all loop over
// Fields, so a new counter is one field plus one Fields entry.
//
// The names are the test hook the chaos campaign engine
// (internal/chaos) builds its oracles on. An oracle asserts *exactly
// which* ingestion counters a fault campaign moved — "a duplication
// storm moves duplicate_drops and nothing else" — and doing that by
// field would couple every campaign to the struct shape. The names
// double as the stable vocabulary campaigns are written and reported
// in. Most equal the swwd_ingest_* metric family of internal/export
// with the prefix and _total suffix stripped; seq_gaps and
// seq_gap_events are the exceptions, exported as
// swwd_ingest_sequence_gaps_total and
// swwd_ingest_sequence_gap_events_total.
package ingest

import "reflect"

// Counters is the server's monotonic ingestion counters. Gauges (nodes,
// listeners) live in Stats beside it: differencing a gauge is
// meaningless, so they are neither deltas nor named counters.
type Counters struct {
	// Frames is the number of datagrams the read loops ingested; Bytes
	// their cumulative payload size.
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
	// Accepted counts frames that passed decode, registration and
	// sequence checks and were replayed into the watchdog.
	Accepted uint64 `json:"accepted"`
	// DecodeErrors counts malformed frames, including frames naming a
	// runnable index outside the node's registered table.
	DecodeErrors uint64 `json:"decode_errors"`
	// UnknownNode counts well-formed frames from unregistered node IDs.
	UnknownNode uint64 `json:"unknown_node"`
	// SeqGaps is the cumulative count of missing sequence numbers
	// (frames lost in flight, as observed from jumps in Seq).
	SeqGaps uint64 `json:"seq_gaps"`
	// SeqGapEvents counts accepted frames whose Seq jumped.
	SeqGapEvents uint64 `json:"seq_gap_events"`
	// DuplicateDrops counts frames dropped because their Seq was not
	// beyond the node's last accepted frame within the same session
	// epoch (duplicate or re-ordered delivery) — dropped without replay
	// so no beat counts twice.
	DuplicateDrops uint64 `json:"duplicate_drops"`
	// NodeRestarts counts accepted frames whose session epoch advanced:
	// the reporter restarted, and the server reset its sequence tracking
	// for the node.
	NodeRestarts uint64 `json:"node_restarts"`
	// StaleEpochDrops counts frames dropped because their session epoch
	// was older than the node's current one (late datagrams from a
	// superseded reporter session).
	StaleEpochDrops uint64 `json:"stale_epoch_drops"`
	// IntervalMismatch counts accepted frames whose declared flush
	// interval differed from the node's registration-time interval. The
	// registered interval is authoritative for the link hypothesis; this
	// counter is the diagnostic for a client flushing on a different
	// cadence than the server expects.
	IntervalMismatch uint64 `json:"interval_mismatch"`
	// DroppedPackets counts datagrams the kernel discarded because a
	// listener socket's receive queue was full: the sum over listeners
	// of the socket's drop counter (SO_MEMINFO), sampled when Stats is
	// called. Only linux/amd64 and linux/arm64 expose it; elsewhere it
	// stays 0.
	DroppedPackets uint64 `json:"dropped_packets"`
	// BuffersExhausted is always 0: the packet free list it counted is
	// gone. The field stays for the WAL record and /metrics
	// compatibility.
	BuffersExhausted uint64 `json:"buffers_exhausted"`
	// ReadErrors counts transient socket read errors.
	ReadErrors uint64 `json:"read_errors"`
	// CommandsSent counts command frames written to reporters;
	// CommandsAcked the commands confirmed by a heartbeat ack pair in
	// the current command epoch; CommandsDropped the commands that could
	// not be sent (unknown return address, socket error).
	CommandsSent    uint64 `json:"commands_sent"`
	CommandsAcked   uint64 `json:"commands_acked"`
	CommandsDropped uint64 `json:"commands_dropped"`
	// CommandStaleAcks counts heartbeat ack pairs ignored because their
	// command epoch was not the server's current one (a reporter still
	// acking a superseded server incarnation).
	CommandStaleAcks uint64 `json:"command_stale_acks"`
}

// NumCounters is the number of counters in Counters.
const NumCounters = 18

// Fields lists every counter of c in declaration order.
func (c *Counters) Fields() [NumCounters]*uint64 {
	return [...]*uint64{
		&c.Frames, &c.Bytes, &c.Accepted, &c.DecodeErrors, &c.UnknownNode,
		&c.SeqGaps, &c.SeqGapEvents, &c.DuplicateDrops, &c.NodeRestarts,
		&c.StaleEpochDrops, &c.IntervalMismatch, &c.DroppedPackets,
		&c.BuffersExhausted, &c.ReadErrors, &c.CommandsSent,
		&c.CommandsAcked, &c.CommandsDropped, &c.CommandStaleAcks,
	}
}

// counterNames holds the json tag of each counter, in Fields order.
var counterNames = func() (names [NumCounters]string) {
	t := reflect.TypeFor[Counters]()
	for i := range names {
		names[i] = t.Field(i).Tag.Get("json")
	}
	return names
}()

// CounterNames lists every name Counter resolves, in Fields order.
func CounterNames() []string { return append([]string(nil), counterNames[:]...) }

// Counter resolves one counter by name. The second result reports
// whether the name is known; asking for an unknown name is a campaign
// authoring bug the caller should surface, never a zero.
func (c Counters) Counter(name string) (uint64, bool) {
	for i, n := range counterNames {
		if n == name {
			return *c.Fields()[i], true
		}
	}
	return 0, false
}

// Add adds every counter of d to c: summing a run of deltas rebuilds
// the counters over that run.
func (c *Counters) Add(d Counters) {
	df := d.Fields()
	for i, f := range c.Fields() {
		*f += *df[i]
	}
}

// IsZero reports whether no counter moved.
func (c Counters) IsZero() bool { return c == Counters{} }
