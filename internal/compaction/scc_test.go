package compaction

import (
	"strings"
	"testing"
	"testing/quick"

	"intrawarp/internal/mask"
)

// verifySchedule checks the structural invariants of an SCC schedule
// (DESIGN.md invariant 2): every active (quad, lane) issues exactly once,
// no source element issues twice, disabled lanes never issue, and the cycle
// count is optimal.
func verifySchedule(t *testing.T, s *Schedule) {
	t.Helper()
	m := s.Mask
	want := m.OptimalCycles(s.Width, s.Group)
	if want == 0 {
		want = 1
	}
	if len(s.Cycles) != want {
		t.Fatalf("mask %#x: %d cycles, want %d", uint32(m), len(s.Cycles), want)
	}
	seen := map[[2]int8]bool{}
	for c, cyc := range s.Cycles {
		if len(cyc) != s.Group {
			t.Fatalf("mask %#x cycle %d: %d lane slots, want %d", uint32(m), c, len(cyc), s.Group)
		}
		for n, a := range cyc {
			if !a.Enabled {
				continue
			}
			key := [2]int8{a.Quad, a.SrcLane}
			if seen[key] {
				t.Fatalf("mask %#x: source Q%d.L%d issued twice", uint32(m), a.Quad, a.SrcLane)
			}
			seen[key] = true
			// The source element must be active in the mask.
			lane := int(a.Quad)*s.Group + int(a.SrcLane)
			if !m.Lane(lane) {
				t.Fatalf("mask %#x: cycle %d ALU lane %d sources disabled lane %d", uint32(m), c, n, lane)
			}
		}
	}
	if len(seen) != m.PopCount() {
		t.Fatalf("mask %#x: scheduled %d elements, want %d", uint32(m), len(seen), m.PopCount())
	}
}

func TestComputeScheduleEmpty(t *testing.T) {
	s := ComputeSchedule(0, 16, 4)
	if len(s.Cycles) != 1 {
		t.Fatalf("empty mask: %d cycles, want 1", len(s.Cycles))
	}
	for _, a := range s.Cycles[0] {
		if a.Enabled {
			t.Fatal("empty mask must not enable any lane")
		}
	}
}

func TestComputeScheduleBCCOnlyPath(t *testing.T) {
	// 0xF0F0 has 2 active quads and optimal 2 cycles: the BCC-like early
	// exit fires and nothing is swizzled.
	s := ComputeSchedule(0xF0F0, 16, 4)
	if !s.BCCOnly {
		t.Fatal("0xF0F0 should take the BCC-only path")
	}
	if s.SwizzleCount() != 0 {
		t.Fatalf("BCC-only schedule has %d swizzles", s.SwizzleCount())
	}
	verifySchedule(t, s)
	// Quads appear in ascending order.
	if s.Cycles[0][0].Quad != 1 || s.Cycles[1][0].Quad != 3 {
		t.Errorf("quad order: %d, %d; want 1, 3", s.Cycles[0][0].Quad, s.Cycles[1][0].Quad)
	}
}

// The paper's Fig. 7 worked example: mask 0xAAAA (lanes 1 and 3 of every
// quad active), optimal 2 cycles, 4 swizzles.
func TestComputeScheduleFig7Example(t *testing.T) {
	s := ComputeSchedule(0xAAAA, 16, 4)
	verifySchedule(t, s)
	if s.BCCOnly {
		t.Fatal("0xAAAA must not take the BCC-only path")
	}
	if len(s.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(s.Cycles))
	}
	// Each cycle must use all four ALU lanes (8 elements / 2 cycles).
	for c, cyc := range s.Cycles {
		for n, a := range cyc {
			if !a.Enabled {
				t.Errorf("cycle %d lane %d disabled; Fig. 7 uses all lanes", c, n)
			}
		}
	}
	// Four of the eight slots must be swizzled (surplus of 2 on lanes 1
	// and 3 each).
	if s.SwizzleCount() != 4 {
		t.Errorf("swizzles = %d, want 4", s.SwizzleCount())
	}
	// Lanes 1 and 3 keep unswizzled elements in both cycles (the
	// algorithm minimizes intra-quad swizzles).
	for c, cyc := range s.Cycles {
		if cyc.Swizzled(1) || cyc.Swizzled(3) {
			t.Errorf("cycle %d: home lanes 1/3 should be unswizzled", c)
		}
	}
}

func TestComputeScheduleExhaustiveSIMD16(t *testing.T) {
	for raw := 0; raw <= 0xFFFF; raw++ {
		s := ComputeSchedule(mask.Mask(raw), 16, 4)
		verifySchedule(t, s)
	}
}

func TestComputeScheduleExhaustiveSIMD8(t *testing.T) {
	for raw := 0; raw <= 0xFF; raw++ {
		s := ComputeSchedule(mask.Mask(raw), 8, 4)
		verifySchedule(t, s)
	}
}

func TestComputeScheduleOtherGroups(t *testing.T) {
	// f64: group 2, width 16.
	for _, raw := range []uint32{0xFFFF, 0xAAAA, 0x0F0F, 0x8001, 0x137F} {
		s := ComputeSchedule(mask.Mask(raw), 16, 2)
		verifySchedule(t, s)
	}
	// f16: group 8, width 32.
	for _, raw := range []uint32{0xFFFFFFFF, 0xAAAAAAAA, 0x0000FFFF, 0x80000001} {
		s := ComputeSchedule(mask.Mask(raw), 32, 8)
		verifySchedule(t, s)
	}
}

// Property: schedules are valid for arbitrary masks/widths/groups, and the
// BCC-only fast path never swizzles.
func TestComputeScheduleProperty(t *testing.T) {
	f := func(raw uint32, wsel, gsel uint8) bool {
		widths := []int{4, 8, 16, 32}
		groups := []int{2, 4, 8}
		w := widths[int(wsel)%len(widths)]
		g := groups[int(gsel)%len(groups)]
		m := mask.Mask(raw).Trunc(w)
		s := ComputeSchedule(m, w, g)
		opt := m.OptimalCycles(w, g)
		if opt == 0 {
			opt = 1
		}
		if len(s.Cycles) != opt {
			return false
		}
		if s.BCCOnly && s.SwizzleCount() != 0 {
			return false
		}
		seen := map[[2]int8]bool{}
		count := 0
		for _, cyc := range s.Cycles {
			for _, a := range cyc {
				if !a.Enabled {
					continue
				}
				key := [2]int8{a.Quad, a.SrcLane}
				if seen[key] {
					return false
				}
				seen[key] = true
				if !m.Lane(int(a.Quad)*g + int(a.SrcLane)) {
					return false
				}
				count++
			}
		}
		return count == m.PopCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// Property: the writeback stage's unswizzle permutation is the inverse
// of the operand swizzle, so it is well defined only if within a cycle no
// two ALU lanes source (and so write back) the same element.
func TestUnswizzleInverseProperty(t *testing.T) {
	f := func(raw uint16) bool {
		s := ComputeSchedule(mask.Mask(raw), 16, 4)
		for _, cyc := range s.Cycles {
			dests := map[[2]int8]bool{}
			for _, a := range cyc {
				if a.Enabled {
					key := [2]int8{a.Quad, a.SrcLane}
					if dests[key] {
						return false
					}
					dests[key] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The cost table's SwizzleCount must equal the constructed schedule's
// swizzle count for every SIMD16 mask, and for random widths/groups.
func TestSwizzleCountMatchesSchedule(t *testing.T) {
	for raw := 0; raw <= 0xFFFF; raw++ {
		m := mask.Mask(raw)
		want := ComputeSchedule(m, 16, 4).SwizzleCount()
		if got := SwizzleCount(m, 16, 4); got != want {
			t.Fatalf("SwizzleCount(%#x) = %d, want %d", raw, got, want)
		}
	}
}

func TestSwizzleCountProperty(t *testing.T) {
	f := func(raw uint32, wsel, gsel uint8) bool {
		widths := []int{4, 8, 16, 32}
		groups := []int{2, 4, 8}
		w := widths[int(wsel)%len(widths)]
		g := groups[int(gsel)%len(groups)]
		m := mask.Mask(raw).Trunc(w)
		return SwizzleCount(m, w, g) == ComputeSchedule(m, w, g).SwizzleCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestScheduleString(t *testing.T) {
	s := ComputeSchedule(0xAAAA, 16, 4)
	str := s.String()
	if !strings.Contains(str, "cycle 0:") || !strings.Contains(str, "mask=0xaaaa") {
		t.Errorf("unexpected schedule rendering:\n%s", str)
	}
}

// ComputeScheduleInto must reuse its backing storage: steady-state
// construction performs zero heap allocations.
func TestComputeScheduleIntoZeroAlloc(t *testing.T) {
	var s Schedule
	ComputeScheduleInto(&s, 0xFFFF, 16, 4) // warm the arena at max size
	allocs := testing.AllocsPerRun(1000, func() {
		ComputeScheduleInto(&s, 0xAAAA, 16, 4)
		ComputeScheduleInto(&s, 0x137F, 16, 4)
		ComputeScheduleInto(&s, 0x0001, 16, 4)
	})
	if allocs != 0 {
		t.Fatalf("ComputeScheduleInto allocates %.1f times per run, want 0", allocs)
	}
}

func BenchmarkComputeScheduleDense(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ComputeSchedule(0xFFFF, 16, 4)
	}
}

func BenchmarkComputeScheduleScattered(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ComputeSchedule(0xAAAA, 16, 4)
	}
}

func BenchmarkComputeScheduleInto(b *testing.B) {
	b.ReportAllocs()
	var s Schedule
	for i := 0; i < b.N; i++ {
		ComputeScheduleInto(&s, mask.Mask(uint32(i)&0xFFFF)|1, 16, 4)
	}
}
