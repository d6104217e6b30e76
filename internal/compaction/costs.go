package compaction

import (
	"sync/atomic"

	"intrawarp/internal/mask"
)

// The cost table: every engine prices an instruction through it
// (Policy.Cycles, CostAll, and through them stats.RecordInstr and the
// timed EU's per-instruction charge). A policy's cost is a pure function
// of (mask, width, group), so the common 32-bit-datatype shapes are
// precomputed per mask:
//
//   - Group 4 at SIMD8 and SIMD16 is direct-indexed by the mask: one
//     packed word per mask, filled lazily from referenceCycles on first
//     use, like ScheduleFor's direct tier. Filling up front would put a
//     64K-entry build on every process's start-up path.
//   - Group 4 at SIMD32 (2^32 masks) uses closed forms computed from one
//     popcount and the nibble tables behind mask.ActiveQuads.
//   - Every other shape is charged by referenceCycles itself.
//
// The table is proved right by exhaustive and randomized comparison with
// referenceCycles (costs_test.go) and, independently, by the oracle model
// (internal/oracle), which shares no code with it.

// costWord packs one mask's cycles under all seven policies, costBits
// bits each, policy p at bit p*costBits. Every policy charges at least
// one cycle, so a filled word is never zero: zero marks an unfilled slot.
type costWord uint32

// costBits holds the largest group-4 cost, 8 cycles at SIMD32.
const costBits = 4

func (w costWord) cycles(p Policy) int { return int(w>>(uint(p)*costBits)) & (1<<costBits - 1) }

var (
	simd8Costs  [1 << 8]atomic.Uint32
	simd16Costs [1 << 16]atomic.Uint32
)

// tableCosts returns m's packed costs, or 0 for a shape the table does
// not cover.
func tableCosts(m mask.Mask, width, group int) costWord {
	if group != directGroup {
		return 0
	}
	switch width {
	case 8:
		return fillCosts(&simd8Costs[m&0xFF], m&0xFF, width)
	case 16:
		return fillCosts(&simd16Costs[m&0xFFFF], m&0xFFFF, width)
	case 32:
		return simd32Costs(m)
	}
	return 0
}

// fillCosts reads one direct-indexed slot, filling it on first use.
// Racing fillers compute and store the same word, so no CAS is needed.
func fillCosts(slot *atomic.Uint32, m mask.Mask, width int) costWord {
	if w := slot.Load(); w != 0 {
		return costWord(w)
	}
	var w costWord
	for _, p := range Policies {
		w |= costWord(p.referenceCycles(m, width, directGroup)) << (uint(p) * costBits)
	}
	slot.Store(uint32(w))
	return w
}

// simd32Costs is the group-4 SIMD32 row of the table in closed form.
// IvyBridge's half-off rule applies only at SIMD16, so at SIMD32 it
// charges the baseline, as ITS does at every width.
func simd32Costs(m mask.Mask) costWord {
	const width, group = 32, directGroup
	const full = width / group
	pop := m.PopCount()
	bcc := m.ActiveQuads(width, group)
	fullQ := m.FullQuads(width, group)
	meld := fullQ + (bcc-fullQ+1)/2
	// Resize: every sub-warp with a live lane issues all of its quads.
	rsz := 0
	for v := uint64(m); v != 0; v >>= DefaultSubWarpWidth {
		if v&(1<<DefaultSubWarpWidth-1) != 0 {
			rsz += DefaultSubWarpWidth / group
		}
	}
	scc := (pop + group - 1) / group
	var w costWord
	for p, c := range [NumPolicies]int{
		Baseline: full, IvyBridge: full, BCC: bcc, SCC: scc,
		Melding: meld, Resize: rsz, ITS: full,
	} {
		w |= costWord(max(c, 1)) << (uint(p) * costBits)
	}
	return w
}
