package pipeline

// Priority classes an element for lane selection. The framework keeps
// its own two-level type rather than importing the wire protocol's
// priority byte; internal/edge maps proto.PriAnomaly onto Anomaly when
// it bridges the two.
type Priority uint8

// The priority lanes, highest first.
const (
	// Anomaly is the expedited lane: a suspected-anomaly window's
	// cloud recall, which must not queue behind routine traffic.
	Anomaly Priority = 1
	// Routine is the default lane.
	Routine Priority = 0
)

// Lanes is a deterministic two-priority FIFO: Pop always drains the
// Anomaly lane before the Routine lane, and within a lane keeps
// insertion order. It is not goroutine-safe — it is the in-stage
// dispatch queue of a single stage (the multi-channel recall
// scheduler), not a channel replacement.
type Lanes[T any] struct {
	hi, lo []T
}

// Push enqueues v on the lane selected by pri.
func (l *Lanes[T]) Push(pri Priority, v T) {
	if pri >= Anomaly {
		l.hi = append(l.hi, v)
		return
	}
	l.lo = append(l.lo, v)
}

// Pop dequeues the next element: head of the Anomaly lane if it is
// non-empty, else head of the Routine lane. ok is false when both
// lanes are empty.
func (l *Lanes[T]) Pop() (v T, ok bool) {
	if len(l.hi) > 0 {
		v, l.hi = l.hi[0], l.hi[1:]
		return v, true
	}
	if len(l.lo) > 0 {
		v, l.lo = l.lo[0], l.lo[1:]
		return v, true
	}
	return v, false
}

// Len reports the queued element count across both lanes.
func (l *Lanes[T]) Len() int { return len(l.hi) + len(l.lo) }
