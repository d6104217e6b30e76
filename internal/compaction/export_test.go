package compaction

import (
	"sync/atomic"

	"intrawarp/internal/mask"
)

// Tabled reports whether the cost table covers the shape, for the
// external cost-table tests.
func Tabled(m mask.Mask, width, group int) bool { return tableCosts(m, width, group) != 0 }

// FillSlot fills (or reads) one slot of a caller-owned group-4 table, so
// tests can hammer lazy fills on a fresh table, and unpacks the word.
func FillSlot(slot *atomic.Uint32, m mask.Mask, width int) (cycles [NumPolicies]int, swizzles int) {
	w := fillCosts(slot, m, width)
	for p := range cycles {
		cycles[p] = w.cycles(Policy(p))
	}
	return cycles, w.swizzles()
}
