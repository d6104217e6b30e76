package compaction

import (
	"fmt"
	"strings"

	"intrawarp/internal/mask"
)

// LaneAssign describes what one ALU lane position executes during one
// compressed cycle: the source execution group (quad) and the source lane
// position within that group. When SrcLane differs from the ALU lane the
// 4×4 crossbar of paper Fig. 5(c) swizzles the operand; the writeback stage
// applies the inverse permutation.
type LaneAssign struct {
	Enabled bool
	Quad    int8 // source execution group index
	SrcLane int8 // source lane position within the group
}

// CycleSetting is the crossbar and lane-enable configuration for one
// compressed execution cycle: one assignment per ALU lane position.
type CycleSetting []LaneAssign

// Swizzled reports whether ALU lane n sources from a different lane
// position (i.e. the crossbar is active for that lane).
func (c CycleSetting) Swizzled(n int) bool {
	return c[n].Enabled && int(c[n].SrcLane) != n
}

// Schedule is a complete SCC execution plan for one instruction: the
// sequence of per-cycle crossbar settings computed by the control logic of
// paper Fig. 6.
//
// Schedules reused via ComputeScheduleInto own their backing storage and
// are valid until the next ComputeScheduleInto on the same value.
type Schedule struct {
	Width  int
	Group  int
	Mask   mask.Mask
	Cycles []CycleSetting
	// BCCOnly is set when the active-quad count already equals the optimal
	// cycle count, so empty-quad skipping suffices and no lane is swizzled
	// ("skip empty quads, BCC-like. Done" in the paper's pseudo-code).
	BCCOnly bool

	// arena is the flat backing store the Cycles slices point into; it is
	// reused across ComputeScheduleInto calls so steady-state schedule
	// construction performs no heap allocation.
	arena []LaneAssign
}

// SwizzleCount returns the number of (cycle, lane) slots whose operand is
// routed through the crossbar from a different lane position.
func (s *Schedule) SwizzleCount() int {
	n := 0
	for _, c := range s.Cycles {
		for ln := range c {
			if c.Swizzled(ln) {
				n++
			}
		}
	}
	return n
}

// String renders the schedule for debugging, one line per cycle.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scc mask=%#x width=%d group=%d cycles=%d bccOnly=%v\n",
		uint32(s.Mask), s.Width, s.Group, len(s.Cycles), s.BCCOnly)
	for c, cyc := range s.Cycles {
		fmt.Fprintf(&b, "  cycle %d:", c)
		for n, a := range cyc {
			if !a.Enabled {
				fmt.Fprintf(&b, " L%d:off", n)
				continue
			}
			if int(a.SrcLane) == n {
				fmt.Fprintf(&b, " L%d:Q%d", n, a.Quad)
			} else {
				fmt.Fprintf(&b, " L%d:Q%d.L%d*", n, a.Quad, a.SrcLane)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ComputeSchedule runs the SCC control algorithm of paper Fig. 6 for an
// execution mask of the given width and element group size, returning the
// per-cycle crossbar settings. The schedule always has
// max(1, ceil(popcount/group)) cycles; an all-zero mask yields a single
// cycle with every lane disabled.
//
// The algorithm keeps, for each ALU lane position n, a queue of the quads
// in which lane n is active. The optimal cycle count is
// ceil(popcount/group). Lanes with queue length above the optimal count
// have "surplus" elements that must be swizzled into other lane positions;
// lanes whose queue runs dry before the last cycle have free slots to
// receive them. Unswizzled assignments are preferred, minimizing crossbar
// activity.
func ComputeSchedule(m mask.Mask, width, group int) *Schedule {
	s := new(Schedule)
	ComputeScheduleInto(s, m, width, group)
	return s
}

// maxLanes bounds the scratch arrays of ComputeScheduleInto. A Mask holds
// 32 lanes, so no instruction has more than 32 execution groups or more
// than 32 lanes per group.
const maxLanes = 32

// ComputeScheduleInto is ComputeSchedule writing into s, reusing its
// backing storage: steady-state schedule construction performs no heap
// allocation. The algorithm's working state (per-lane quad queues,
// surplus counters) lives on the stack. group must be at most 32.
func ComputeScheduleInto(s *Schedule, m mask.Mask, width, group int) {
	if group < 1 || group > maxLanes {
		panic(fmt.Sprintf("compaction: group size %d out of range [1,%d]", group, maxLanes))
	}
	m = m.Trunc(width)
	quads := mask.QuadCount(width, group)
	opt := m.OptimalCycles(width, group)
	nCycles := opt
	if nCycles == 0 {
		// Empty mask: one dead issue cycle, all lanes off.
		nCycles = 1
	}

	s.Width, s.Group, s.Mask = width, group, m
	s.BCCOnly = false
	need := nCycles * group
	if cap(s.arena) < need {
		s.arena = make([]LaneAssign, need)
	} else {
		s.arena = s.arena[:need]
		clear(s.arena)
	}
	if cap(s.Cycles) < nCycles {
		s.Cycles = make([]CycleSetting, nCycles)
	} else {
		s.Cycles = s.Cycles[:nCycles]
	}
	for c := 0; c < nCycles; c++ {
		s.Cycles[c] = s.arena[c*group : (c+1)*group]
	}
	if opt == 0 {
		return
	}

	// Phase 1 of Fig. 6: per-lane queues of active quads. A lane's queue
	// holds at most one entry per active quad, and a 32-lane mask has at
	// most 32 of those, so fixed-size stack arrays suffice.
	var laneQ [maxLanes][maxLanes]int8
	var qLen, qHead [maxLanes]uint8
	for q := 0; q < quads; q++ {
		qm := m.Quad(q, group)
		if qm == 0 {
			continue
		}
		for n := 0; n < group; n++ {
			if qm.Lane(n) {
				laneQ[n][qLen[n]] = int8(q)
				qLen[n]++
			}
		}
	}

	if m.ActiveQuads(width, group) == opt {
		// "skip empty quads, BCC-like. Done": emit active quads in order
		// with no swizzling.
		s.BCCOnly = true
		c := 0
		for q := 0; q < quads; q++ {
			qm := m.Quad(q, group)
			if qm == 0 {
				continue
			}
			cyc := s.Cycles[c]
			c++
			for n := 0; n < group; n++ {
				if qm.Lane(n) {
					cyc[n] = LaneAssign{Enabled: true, Quad: int8(q), SrcLane: int8(n)}
				}
			}
		}
		return
	}

	// Initial setup: per-lane surplus relative to the optimal cycle count.
	var surplus [maxLanes]int8
	totSurplus := 0
	for n := 0; n < group; n++ {
		if int(qLen[n]) > opt {
			surplus[n] = int8(int(qLen[n]) - opt)
			totSurplus += int(surplus[n])
		}
	}

	// Per-cycle scheduling: unswizzled dequeue when the home queue has
	// work, otherwise fill from the lowest-indexed surplus lane.
	for c := 0; c < opt; c++ {
		cyc := s.Cycles[c]
		for n := 0; n < group; n++ {
			if qHead[n] < qLen[n] {
				cyc[n] = LaneAssign{Enabled: true, Quad: laneQ[n][qHead[n]], SrcLane: int8(n)}
				qHead[n]++
				continue
			}
			if totSurplus > 0 {
				mIdx := -1
				for k := 0; k < group; k++ {
					if surplus[k] > 0 && qHead[k] < qLen[k] {
						mIdx = k
						break
					}
				}
				if mIdx >= 0 {
					cyc[n] = LaneAssign{Enabled: true, Quad: laneQ[mIdx][qHead[mIdx]], SrcLane: int8(mIdx)}
					qHead[mIdx]++
					surplus[mIdx]--
					totSurplus--
					continue
				}
			}
			// No surplus: lane stays unfilled this cycle.
		}
	}
}
