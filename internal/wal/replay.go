package wal

import (
	"os"
	"sort"

	"swwd/internal/core"
)

// History is the result of replaying a log directory: every intact
// record in sequence order, plus an accounting of the torn tail the
// scan stopped at (if any). Replay is read-only — it never truncates —
// so it is safe against a directory another process is writing: the
// torn tail is simply that writer's not-yet-committed edge.
type History struct {
	// Records holds every intact record, ascending by Seq.
	Records []Record
	// FirstSeq/LastSeq bound the replayed range (0/0 when empty).
	FirstSeq, LastSeq uint64
	// TornBytes counts trailing bytes the scan could not validate;
	// TornSegments the whole segments abandoned past the corruption
	// point.
	TornBytes    int64
	TornSegments int
	// Segments is the number of segment files visited.
	Segments int
}

// Replay scans every segment of dir in order and returns the intact
// history. A missing directory replays as an empty history.
func Replay(dir string) (*History, error) {
	h := &History{}
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return h, nil
		}
		return nil, err
	}
	h.Segments = len(segs)
	want := startSeq(segs)
	for i := range segs {
		data, err := os.ReadFile(segs[i].path)
		if err != nil {
			return nil, err
		}
		off, scanErr := scanSegment(data, &want, func(r *Record) {
			h.Records = append(h.Records, *r)
		})
		if scanErr != nil {
			h.TornBytes += segs[i].size - off
			for _, s := range segs[i+1:] {
				h.TornBytes += s.size
				h.TornSegments++
			}
			break
		}
	}
	if len(h.Records) > 0 {
		h.FirstSeq = h.Records[0].Seq
		h.LastSeq = h.Records[len(h.Records)-1].Seq
	}
	return h, nil
}

// Window returns the records whose append time falls in
// [sinceNs, untilNs) — Unix nanoseconds; untilNs <= 0 means no upper
// bound. Records are time-ordered because the single writer stamps
// them, so the window is one contiguous slice of Records (not a copy).
func (h *History) Window(sinceNs, untilNs int64) []Record {
	lo := sort.Search(len(h.Records), func(i int) bool { return h.Records[i].TimeNs >= sinceNs })
	hi := len(h.Records)
	if untilNs > 0 {
		hi = sort.Search(len(h.Records), func(i int) bool { return h.Records[i].TimeNs >= untilNs })
	}
	if lo > hi {
		lo = hi
	}
	return h.Records[lo:hi]
}

// RunnableView is the per-runnable slice of a rebuilt View: the
// cumulative error-indication vector and freeze-frame figures of the
// runnable's most recent detection.
type RunnableView struct {
	Detections     uint64 `json:"detections"`
	ErrAliveness   uint64 `json:"err_aliveness"`
	ErrArrivalRate uint64 `json:"err_arrival_rate"`
	ErrProgramFlow uint64 `json:"err_program_flow"`
	LastBeats      uint64 `json:"last_beats"`
	LastCycle      uint64 `json:"last_cycle"`
}

// View is the Snapshot-equivalent state a replay rebuilds: what a fleet
// supervisor reads after a restart erased the in-core journal. Each
// journal entry carries the runnable's cumulative error-indication
// vector after the detection, so the last record per runnable
// reconstructs the same per-runnable fault counts a live
// core.Snapshot reports, and the detection count by kind reconstructs
// the cumulative Results series over the retained window.
type View struct {
	// Detections counts replayed detection records; Aliveness/
	// ArrivalRate/ProgramFlow split them by kind (the Results series).
	Detections  uint64 `json:"detections"`
	Aliveness   uint64 `json:"aliveness"`
	ArrivalRate uint64 `json:"arrival_rate"`
	ProgramFlow uint64 `json:"program_flow"`
	// LastJournalSeq is the journal sequence of the newest replayed
	// detection; LastCycle its monitoring cycle.
	LastJournalSeq uint64 `json:"last_journal_seq"`
	LastCycle      uint64 `json:"last_cycle"`
	// Runnables maps runnable ID to its rebuilt per-runnable state.
	Runnables map[int32]RunnableView `json:"runnables"`
	// Actions counts treatment actions by treat.ActionKind.
	Actions map[uint8]uint64 `json:"actions"`
	// Ingest is the sum of every replayed counter delta: the ingest
	// counters accumulated over the replayed window.
	Ingest Delta `json:"ingest"`
	// Deltas counts the ingest delta records summed into Ingest.
	Deltas uint64 `json:"deltas"`
}

// View folds the history into the Snapshot-equivalent aggregate.
func (h *History) View() View {
	v := View{
		Runnables: make(map[int32]RunnableView),
		Actions:   make(map[uint8]uint64),
	}
	for i := range h.Records {
		v.apply(&h.Records[i])
	}
	return v
}

// apply folds one record into the view.
func (v *View) apply(r *Record) {
	switch r.Kind {
	case KindDetection:
		d := &r.Det
		v.Detections++
		switch core.ErrorKind(d.Kind) {
		case core.AlivenessError:
			v.Aliveness++
		case core.ArrivalRateError:
			v.ArrivalRate++
		case core.ProgramFlowError:
			v.ProgramFlow++
		}
		v.LastJournalSeq = d.JournalSeq
		v.LastCycle = d.Cycle
		rv := v.Runnables[d.Runnable]
		rv.Detections++
		rv.ErrAliveness = d.ErrAliveness
		rv.ErrArrivalRate = d.ErrArrivalRate
		rv.ErrProgramFlow = d.ErrProgramFlow
		rv.LastBeats = d.Beats
		rv.LastCycle = d.Cycle
		v.Runnables[d.Runnable] = rv
	case KindAction:
		v.Actions[r.Act.Kind]++
	case KindDelta:
		v.Ingest.Add(r.Delta)
		v.Deltas++
	}
}
