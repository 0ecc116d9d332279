package types

// RoundWindow holds one T per round over a span of rounds that begins at a
// floor and only ever slides upward — the shape of everything the consensus
// core retains per round (the DAG's rounds, the committer's delivered sets):
// filled contiguously at the top, pruned from the bottom. It is a slice
// indexed by round minus floor, so a lookup is a subtraction and a bounds
// check, not a hash. The zero T stands for "nothing at this round"; the zero
// RoundWindow is empty with floor 0.
type RoundWindow[T any] struct {
	floor Round
	items []T // items[i] belongs to round floor+i
}

// NewRoundWindow returns an empty window starting at floor.
func NewRoundWindow[T any](floor Round) RoundWindow[T] {
	return RoundWindow[T]{floor: floor}
}

// Floor returns the lowest round the window can hold.
func (w *RoundWindow[T]) Floor() Round { return w.floor }

// End returns the round after the highest one ever Set (Floor when empty).
func (w *RoundWindow[T]) End() Round { return w.floor + Round(len(w.items)) }

// At returns the value at round r, the zero T if nothing was Set there —
// including below the floor and at or above End.
func (w *RoundWindow[T]) At(r Round) T {
	// A round below the floor wraps to an index no slice is long enough for.
	if i := r - w.floor; i < Round(len(w.items)) {
		return w.items[i]
	}
	var zero T
	return zero
}

// Set stores v at round r, which must not be below the floor, and grows the
// window up to r: it costs one T per round between the floor and r, so a
// caller taking r from outside bounds how far above the floor it may lie.
func (w *RoundWindow[T]) Set(r Round, v T) {
	i := int(r - w.floor)
	for len(w.items) <= i {
		var zero T
		w.items = append(w.items, zero)
	}
	w.items[i] = v
}

// DropBelow raises the floor, releasing every round below it. A floor at or
// below the current one changes nothing.
func (w *RoundWindow[T]) DropBelow(floor Round) {
	if floor <= w.floor {
		return
	}
	n := 0
	if drop := floor - w.floor; drop < Round(len(w.items)) {
		n = copy(w.items, w.items[drop:])
	}
	clear(w.items[n:]) // let the dropped values be collected
	w.items = w.items[:n]
	w.floor = floor
}
