package compaction

import (
	"sync/atomic"

	"intrawarp/internal/mask"
)

// The cost table: every engine prices an instruction through it
// (Policy.Cycles, Policy.Price, CostAll, SwizzleCount, and through them
// stats.RecordInstr and the timed EU's per-instruction charge). An
// instruction's price — its cycles under all seven policies and its SCC
// crossbar swizzle count — is a pure function of (mask, width, group),
// computed in one place, priceOf. The common 32-bit-datatype shapes
// (group 4 at SIMD8 and SIMD16) memoize it in a direct-indexed table,
// one packed word per mask, filled lazily on first use: filling up front
// would put a 64K-entry build on every process's start-up path. Every
// other shape calls priceOf directly.
//
// The table is proved right by exhaustive and randomized comparison with
// the oracle model (internal/oracle), which shares no code with it
// (costs_test.go).

// directGroup is the element group size the table covers: 32-bit
// datatypes on the 4-wide ALU.
const directGroup = 4

// price is one instruction's cost under every policy, indexed by Policy,
// and the number of operands SCC routes through the crossbar.
type price struct {
	cycles   [NumPolicies]int
	swizzles int
}

// priceOf computes an instruction's price from shared mask quantities:
// popcount, active quads, full quads, issued sub-warp quads, and one
// popcount per ALU lane position for the Fig. 6 surplus. Every policy
// charges at least one cycle: an empty mask still occupies an issue slot.
func priceOf(m mask.Mask, width, group int) price {
	m = m.Trunc(width)
	full := max(mask.QuadCount(width, group), 1)
	pop := m.PopCount()
	active := m.ActiveQuads(width, group)
	fullQ := m.FullQuads(width, group)
	opt := (pop + group - 1) / group

	// IvyBridge's half-off rule applies only at SIMD16.
	ivb := full
	if width == ivbWidth && full >= 2 && (m.UpperHalfOff(width) || m.LowerHalfOff(width)) {
		ivb = full / 2
	}

	// Fig. 6 surplus: each ALU lane position serves its own queue
	// unswizzled once per cycle, so the swizzled remainder is
	// popcount − Σ_lanes min(queueLen, optimalCycles). comb has the first
	// lane of every group set; shifted by n it selects lane position n.
	var comb mask.Mask
	for q := 0; q < mask.QuadCount(width, group); q++ {
		comb |= 1 << uint(q*group)
	}
	unswizzled := 0
	for n := 0; n < group; n++ {
		unswizzled += min((m & (comb << uint(n))).PopCount(), opt)
	}

	var pr price
	for p, c := range [NumPolicies]int{
		Baseline:  full,
		IvyBridge: ivb,
		BCC:       active,
		SCC:       opt,
		Melding:   fullQ + (active-fullQ+1)/2,
		Resize:    resizeQuads(m, width, group, DefaultSubWarpWidth),
		// Volta-style ITS interleaves divergent passes for progress and
		// latency hiding but still issues each pass at full width.
		ITS: full,
	} {
		pr.cycles[p] = max(c, 1)
	}
	pr.swizzles = pop - unswizzled
	return pr
}

// costWord packs one mask's price: the cycles under all seven policies,
// costBits bits each, policy p at bit p*costBits, then the swizzle count
// in the top costBits. Every policy charges at least one cycle, so a
// filled word is never zero: zero marks an unfilled slot.
type costWord uint32

// costBits holds the largest group-4 cost at SIMD16 (4 cycles) and the
// largest swizzle count (4 operands, exhaustively checked).
const costBits = 4

func (w costWord) cycles(p Policy) int { return int(w>>(uint(p)*costBits)) & (1<<costBits - 1) }

func (w costWord) swizzles() int { return int(w >> (NumPolicies * costBits)) }

func (pr price) pack() costWord {
	w := costWord(pr.swizzles) << (NumPolicies * costBits)
	for p, c := range pr.cycles {
		w |= costWord(c) << (uint(p) * costBits)
	}
	return w
}

var (
	simd8Costs  [1 << 8]atomic.Uint32
	simd16Costs [1 << 16]atomic.Uint32
)

// tableCosts returns m's packed price, or 0 for a shape the table does
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
	}
	return 0
}

// fillCosts reads one direct-indexed slot, filling it on first use.
// Racing fillers compute and store the same word, so no CAS is needed.
func fillCosts(slot *atomic.Uint32, m mask.Mask, width int) costWord {
	if w := slot.Load(); w != 0 {
		return costWord(w)
	}
	w := priceOf(m, width, directGroup).pack()
	slot.Store(uint32(w))
	return w
}

// Price returns the execution-pipe cycles p charges for an instruction
// of the given width and element group size under execution mask m, and
// the number of operands p routes through the crossbar for it, from one
// cost-table read. Only SCC uses the crossbar (its Fig. 6 schedule);
// every other policy routes none.
func (p Policy) Price(m mask.Mask, width, group int) (cycles, swizzles int) {
	if w := tableCosts(m, width, group); w != 0 {
		cycles, swizzles = w.cycles(p), w.swizzles()
	} else {
		pr := priceOf(m, width, group)
		cycles, swizzles = pr.cycles[p], pr.swizzles
	}
	if p != SCC {
		swizzles = 0
	}
	return cycles, swizzles
}

// Cycles returns the number of execution-pipe cycles an instruction of the
// given width and element group size occupies under the policy, for
// execution mask m. The result is always at least 1. It reads the shared
// cost table, so it always agrees with CostAll.
func (p Policy) Cycles(m mask.Mask, width, group int) int {
	c, _ := p.Price(m, width, group)
	return c
}

// CostAll returns the execution cycles of all policies at once, indexed by
// Policy. Used by the simulator's what-if accounting so a single functional
// run yields EU-cycle totals for every policy.
func CostAll(m mask.Mask, width, group int) [NumPolicies]int {
	w := tableCosts(m, width, group)
	if w == 0 {
		return priceOf(m, width, group).cycles
	}
	var out [NumPolicies]int
	for p := range out {
		out[p] = w.cycles(Policy(p))
	}
	return out
}

// SwizzleCount returns, without building the schedule, the number of
// operands the Fig. 6 algorithm routes through the crossbar for this
// mask. Equality with Schedule.SwizzleCount is property-tested.
func SwizzleCount(m mask.Mask, width, group int) int {
	_, s := SCC.Price(m, width, group)
	return s
}
