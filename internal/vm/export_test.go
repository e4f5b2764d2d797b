package vm

// ValueSlab is valueSlab, for the budgets that count value slabs.
const ValueSlab = valueSlab

// ResetRecyclingValues is Reset with the one bug Arena's contract forbids:
// it rewinds the value slab too, so the next calls carve over values
// already handed out. The meta-tests plant it; nothing else may.
func ResetRecyclingValues(a *Arena) {
	a.Reset()
	a.values = a.values[:0]
}
