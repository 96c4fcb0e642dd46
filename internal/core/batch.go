package core

import (
	"fmt"

	"swwd/internal/runnable"
)

// This file holds the watchdog's one configuration path. Every change of
// a hypothesis, an Activation Status or a shadow candidate is an op of a
// Batch: Apply checks every op before the first change and then applies
// them all under one acquisition of w.mu, and the one-op methods
// (SetHypothesis, Activate, Deactivate, SetShadow, ClearShadow) are
// Apply with a batch of one.

// opKind names a configuration op; its String is the one-op method.
type opKind uint8

const (
	setHypothesisOp opKind = iota
	activateOp
	deactivateOp
	setShadowOp
	clearShadowOp
)

func (k opKind) String() string {
	return [...]string{"SetHypothesis", "Activate", "Deactivate", "SetShadow", "ClearShadow"}[k]
}

// batchOp is one configuration change.
type batchOp struct {
	kind opKind
	rid  runnable.ID
	hyp  Hypothesis // the hypothesis or shadow candidate of setHypothesisOp and setShadowOp
}

// Batch is a list of configuration changes that Watchdog.Apply makes as
// one step: a treatment acting on a whole task or node, or a rollout
// stage, lands between two monitoring decisions, never inside one. The
// zero value is an empty batch. A Batch is reused with Reset and, once
// its list has grown to the largest batch built, adds ops without
// allocating. It is not safe for concurrent use.
type Batch struct {
	ops []batchOp
}

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Len reports how many ops the batch holds.
func (b *Batch) Len() int { return len(b.ops) }

// SetupBatchOps bounds a set-up batch. Fleet set-up and node
// registration configure every runnable they create, two ops each, and
// apply them in batches of at most this many ops, reusing one Batch, so
// the op list stays at about 100 KB however large the fleet: one batch
// for a 100,000-node fleet would grow to megabytes and discard as much
// again in append's doublings. RegisterNodes checks every op before its
// first Apply, so it still changes nothing when it fails; Build's
// watchdog is discarded when it fails.
const SetupBatchOps = 2048

// SetHypothesis adds Watchdog.SetHypothesis(rid, h).
func (b *Batch) SetHypothesis(rid runnable.ID, h Hypothesis) {
	b.ops = append(b.ops, batchOp{kind: setHypothesisOp, rid: rid, hyp: h})
}

// Activate adds Watchdog.Activate(rid).
func (b *Batch) Activate(rid runnable.ID) {
	b.ops = append(b.ops, batchOp{kind: activateOp, rid: rid})
}

// Deactivate adds Watchdog.Deactivate(rid).
func (b *Batch) Deactivate(rid runnable.ID) {
	b.ops = append(b.ops, batchOp{kind: deactivateOp, rid: rid})
}

// SetShadow adds Watchdog.SetShadow(rid, h).
func (b *Batch) SetShadow(rid runnable.ID, h Hypothesis) {
	b.ops = append(b.ops, batchOp{kind: setShadowOp, rid: rid, hyp: h})
}

// ClearShadow adds Watchdog.ClearShadow(rid).
func (b *Batch) ClearShadow(rid runnable.ID) {
	b.ops = append(b.ops, batchOp{kind: clearShadowOp, rid: rid})
}

// Apply makes the batch's changes in order, as the one-op methods would
// one after another, but as one step: every op is checked first, and a
// batch with any invalid op is rejected with that op's error and changes
// nothing; otherwise all ops apply under one acquisition of the
// watchdog's lock, so a Cycle, a detection or a reader sees the
// watchdog before the batch or after it. Ops are checked one by one, not
// against each other: a batch may set a runnable's hypothesis and then
// activate it. An empty batch returns at once.
func (w *Watchdog) Apply(b *Batch) error {
	if len(b.ops) == 0 {
		return nil
	}
	return w.applyOps(b.ops)
}

// applyOps checks ops, then applies them under w.mu.
func (w *Watchdog) applyOps(ops []batchOp) error {
	for i := range ops {
		if err := w.checkOp(&ops[i]); err != nil {
			return err
		}
	}
	w.lock()
	defer w.mu.Unlock()
	for i := range ops {
		w.applyLocked(&ops[i])
	}
	return nil
}

// checkOp validates one op without reading watchdog state, which is why
// a batch can be checked as a whole before its first change.
func (w *Watchdog) checkOp(op *batchOp) error {
	if op.kind == setHypothesisOp || op.kind == setShadowOp {
		if err := op.hyp.Validate(); err != nil {
			return fmt.Errorf("core: %v(%d): %w", op.kind, op.rid, err)
		}
	}
	if err := w.checkRunnable(op.rid); err != nil {
		return err
	}
	if op.kind == setShadowOp {
		return checkShadow(op.rid, op.hyp)
	}
	return nil
}

// applyLocked applies one checked op. Requires w.mu.
func (w *Watchdog) applyLocked(op *batchOp) {
	switch op.kind {
	case setHypothesisOp:
		w.setHypothesisLocked(op.rid, op.hyp)
	case activateOp, deactivateOp:
		w.setActiveLocked(op.rid, op.kind == activateOp)
	case setShadowOp:
		w.setShadowLocked(op.rid, op.hyp)
	case clearShadowOp:
		w.clearShadowLocked(op.rid)
	}
}
