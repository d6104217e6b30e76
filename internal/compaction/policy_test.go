package compaction

import (
	"testing"
	"testing/quick"

	"intrawarp/internal/mask"
)

func TestPolicyString(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want string
	}{{Baseline, "baseline"}, {IvyBridge, "ivb"}, {BCC, "bcc"}, {SCC, "scc"},
		{Melding, "meld"}, {Resize, "resize"}, {ITS, "its"}} {
		if c.p.String() != c.want {
			t.Errorf("%d.String() = %q, want %q", c.p, c.p.String(), c.want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"baseline", "ivb", "bcc", "scc", "meld", "resize", "its"} {
		p, err := ParsePolicy(s)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
		}
		if p.String() != s {
			t.Errorf("ParsePolicy(%q) = %s", s, p)
		}
	}
	// Aliases from the literature resolve to the same policies.
	for alias, want := range map[string]Policy{
		"melding": Melding, "darm": Melding, "dwr": Resize, "volta": ITS,
	} {
		if p, err := ParsePolicy(alias); err != nil || p != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", alias, p, err, want)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

// Cycle counts for the masks of paper Fig. 8 and §3.1, SIMD16 with 32-bit
// elements (group 4).
func TestCyclesPaperPatterns(t *testing.T) {
	cases := []struct {
		m                   mask.Mask
		base, ivb, bcc, scc int
	}{
		{0xFFFF, 4, 4, 4, 4}, // coherent
		{0xF0F0, 4, 4, 2, 2}, // BCC-friendly: two empty quads; IVB can't help
		{0x00FF, 4, 2, 2, 2}, // lower-half only: IVB halves it
		{0xFF00, 4, 2, 2, 2}, // upper-half only
		{0xFF0F, 4, 4, 3, 3}, // 12 lanes: one dead quad
		{0xAAAA, 4, 4, 4, 2}, // alternating: only SCC compresses
		{0x000F, 4, 2, 1, 1}, // paper Fig. 4(a) IF-clause: 4 lanes in one quad
		{0xFFF0, 4, 4, 3, 3}, // paper Fig. 4(a) ELSE-clause: 12 lanes
		{0x0001, 4, 2, 1, 1}, // single lane
		{0x8001, 4, 4, 2, 1}, // two scattered lanes
		{0x0000, 4, 2, 1, 1}, // empty mask: minimum one cycle (IVB sees both halves off)
	}
	for _, c := range cases {
		if got := Baseline.Cycles(c.m, 16, 4); got != c.base {
			t.Errorf("baseline(%#x) = %d, want %d", c.m, got, c.base)
		}
		if got := IvyBridge.Cycles(c.m, 16, 4); got != c.ivb {
			t.Errorf("ivb(%#x) = %d, want %d", c.m, got, c.ivb)
		}
		if got := BCC.Cycles(c.m, 16, 4); got != c.bcc {
			t.Errorf("bcc(%#x) = %d, want %d", c.m, got, c.bcc)
		}
		if got := SCC.Cycles(c.m, 16, 4); got != c.scc {
			t.Errorf("scc(%#x) = %d, want %d", c.m, got, c.scc)
		}
	}
}

func TestCyclesSIMD8(t *testing.T) {
	// The IVB half-off optimization applies to SIMD16 only.
	if got := IvyBridge.Cycles(0x0F, 8, 4); got != 2 {
		t.Errorf("ivb simd8 half-off = %d, want 2 (no IVB benefit at SIMD8)", got)
	}
	if got := BCC.Cycles(0x0F, 8, 4); got != 1 {
		t.Errorf("bcc simd8 0x0F = %d, want 1", got)
	}
	if got := SCC.Cycles(0x11, 8, 4); got != 1 {
		t.Errorf("scc simd8 0x11 = %d, want 1", got)
	}
	if got := Baseline.Cycles(0xFF, 8, 4); got != 2 {
		t.Errorf("baseline simd8 = %d, want 2", got)
	}
}

// Wider datatypes change the group size: SIMD16 f64 has group 2 (8 baseline
// cycles), f16 has group 8 (2 baseline cycles). §4.1: benefits are larger
// for wider datatypes.
func TestCyclesDatatypeScaling(t *testing.T) {
	m := mask.Mask(0x000F)
	if got := Baseline.Cycles(m, 16, 2); got != 8 {
		t.Errorf("baseline f64 = %d, want 8", got)
	}
	if got := BCC.Cycles(m, 16, 2); got != 2 {
		t.Errorf("bcc f64 = %d, want 2", got)
	}
	if got := Baseline.Cycles(m, 16, 8); got != 2 {
		t.Errorf("baseline f16 = %d, want 2", got)
	}
	if got := BCC.Cycles(m, 16, 8); got != 1 {
		t.Errorf("bcc f16 = %d, want 1", got)
	}
}

// Table 2 of the paper: nested-branch execution masks and the benefit split
// between the IVB optimization, BCC, and SCC. For each nesting level we sum
// cycle costs across all branch-path masks and check the relative savings.
func TestTable2NestedBranchBenefits(t *testing.T) {
	sum := func(p Policy, masks []mask.Mask) int {
		tot := 0
		for _, m := range masks {
			tot += p.Cycles(m, 16, 4)
		}
		return tot
	}
	level := func(name string, masks []mask.Mask, wantIVB, wantBCCExtra, wantSCCExtra float64) {
		t.Helper()
		base := sum(Baseline, masks)
		ivb := sum(IvyBridge, masks)
		bcc := sum(BCC, masks)
		scc := sum(SCC, masks)
		gotIVB := float64(base-ivb) / float64(base)
		gotBCC := float64(ivb-bcc) / float64(base)
		gotSCC := float64(bcc-scc) / float64(base)
		if gotIVB != wantIVB || gotBCC != wantBCCExtra || gotSCC != wantSCCExtra {
			t.Errorf("%s: ivb=%.2f bcc=%.2f scc=%.2f, want %.2f %.2f %.2f",
				name, gotIVB, gotBCC, gotSCC, wantIVB, wantBCCExtra, wantSCCExtra)
		}
	}

	// L1: masks 5555,AAAA — every quad has 2 of 4 lanes active, so neither
	// IVB nor BCC compresses anything; SCC halves the cycles (50%).
	l1 := []mask.Mask{0x5555, 0xAAAA}
	level("L1", l1, 0, 0, 0.50)

	// L2: masks 1111,4444,8888,2222 — every quad has exactly 1 of 4 lanes:
	// optimal is 1 cycle vs 4: 75% total, all from SCC.
	l2 := []mask.Mask{0x1111, 0x4444, 0x8888, 0x2222}
	level("L2", l2, 0, 0, 0.75)

	// L3: two one-hot quads per mask — paper row: BCC 50%, SCC +25%.
	l3 := []mask.Mask{0x0101, 0x1010, 0x0404, 0x4040, 0x0808, 0x8080, 0x0202, 0x2020}
	level("L3", l3, 0, 0.50, 0.25)

	// L4: 16 one-bit masks — IVB halves the cycles (50%, one half always
	// off), BCC adds +25% on top (single active quad), SCC adds nothing.
	var l4 []mask.Mask
	for i := 0; i < 16; i++ {
		l4 = append(l4, mask.Mask(1)<<uint(i))
	}
	level("L4", l4, 0.50, 0.25, 0)
}

// Property: the policy strength ordering holds for every mask, width, and
// group size (DESIGN.md invariant 1).
func TestPolicyOrderingProperty(t *testing.T) {
	f := func(raw uint32, wsel, gsel uint8) bool {
		widths := []int{4, 8, 16, 32}
		groups := []int{2, 4, 8}
		w := widths[int(wsel)%len(widths)]
		g := groups[int(gsel)%len(groups)]
		m := mask.Mask(raw).Trunc(w)
		scc := SCC.Cycles(m, w, g)
		bcc := BCC.Cycles(m, w, g)
		rsz := Resize.Cycles(m, w, g)
		ivb := IvyBridge.Cycles(m, w, g)
		base := Baseline.Cycles(m, w, g)
		meld := Melding.Cycles(m, w, g)
		its := ITS.Cycles(m, w, g)
		return scc <= bcc && bcc <= rsz && rsz <= ivb && ivb <= base && scc >= 1 &&
			meld <= bcc && 2*meld >= scc && meld >= 1 && its == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// Exhaustive check over every SIMD16 mask: SCC is exactly
// max(1, ceil(pop/4)), BCC is exactly max(1, activeQuads).
func TestExactCyclesExhaustiveSIMD16(t *testing.T) {
	for raw := 0; raw <= 0xFFFF; raw++ {
		m := mask.Mask(raw)
		pop := m.PopCount()
		wantSCC := (pop + 3) / 4
		if wantSCC < 1 {
			wantSCC = 1
		}
		if got := SCC.Cycles(m, 16, 4); got != wantSCC {
			t.Fatalf("scc(%#x) = %d, want %d", raw, got, wantSCC)
		}
		wantBCC := m.ActiveQuads(16, 4)
		if wantBCC < 1 {
			wantBCC = 1
		}
		if got := BCC.Cycles(m, 16, 4); got != wantBCC {
			t.Fatalf("bcc(%#x) = %d, want %d", raw, got, wantBCC)
		}
	}
}

func TestCostAll(t *testing.T) {
	// All four quads of 0xAAAA are partially enabled: baseline/ivb charge
	// all 4; bcc skips nothing (no dead quad); scc packs 8 lanes into 2
	// cycles; meld pairs the 4 partial quads into 2 shared slots; resize
	// issues both sub-warps (2 quads each); its matches baseline.
	got := CostAll(0xAAAA, 16, 4)
	want := [NumPolicies]int{4, 4, 4, 2, 2, 4, 4}
	if got != want {
		t.Errorf("CostAll(0xAAAA) = %v, want %v", got, want)
	}
}

// Property: GroupFetchCounts matches a tally of the GroupFetches slice
// for every policy over random masks, widths, and groups.
func TestGroupFetchCountsMatchesGroupFetches(t *testing.T) {
	f := func(raw uint32, wsel, gsel, psel uint8) bool {
		widths := []int{4, 8, 16, 32}
		groups := []int{2, 4, 8}
		w := widths[int(wsel)%len(widths)]
		g := groups[int(gsel)%len(groups)]
		p := Policies[int(psel)%NumPolicies]
		m := mask.Mask(raw)
		fetched, saved := p.GroupFetchCounts(m, w, g)
		wantF, wantS := 0, 0
		for _, f := range p.GroupFetches(m, w, g) {
			if f {
				wantF++
			} else {
				wantS++
			}
		}
		return fetched == wantF && saved == wantS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// Lanes at or above the instruction width never fetch: at widths that
// are not a multiple of the group, a high bit lands inside the last
// group's mask and must still be ignored, as Cycles ignores it.
func TestGroupFetchCountsIgnoreLanesAboveWidth(t *testing.T) {
	for _, width := range []int{1, 4} {
		for _, m := range []mask.Mask{0b10, 0b1110, 0x10, 0xF0, 0xFFFFFFF0, 0xFFFFFFFF, 0x80000000} {
			for _, p := range Policies {
				fetched, saved := p.GroupFetchCounts(m, width, 4)
				wantF, wantS := p.GroupFetchCounts(m.Trunc(width), width, 4)
				if fetched != wantF || saved != wantS {
					t.Errorf("SIMD%d %s.GroupFetchCounts(%#x) = (%d, %d), want (%d, %d) as for the truncated mask",
						width, p, uint32(m), fetched, saved, wantF, wantS)
				}
			}
		}
	}
}

func TestGroupFetchCountsZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range Policies {
			p.GroupFetchCounts(0xAAAA, 16, 4)
		}
	})
	if allocs != 0 {
		t.Fatalf("GroupFetchCounts allocates %.1f times per run, want 0", allocs)
	}
}

func TestGroupFetches(t *testing.T) {
	// BCC skips operand fetch for empty quads.
	got := BCC.GroupFetches(0xF0F0, 16, 4)
	want := []bool{false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bcc fetches[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Baseline fetches everything.
	for i, f := range Baseline.GroupFetches(0x0001, 16, 4) {
		if !f {
			t.Errorf("baseline fetches[%d] = false", i)
		}
	}
	// SCC fetches the full operand into the 512b latch.
	for i, f := range SCC.GroupFetches(0x0001, 16, 4) {
		if !f {
			t.Errorf("scc fetches[%d] = false", i)
		}
	}
	// IVB half-off fetches only the active half.
	ivb := IvyBridge.GroupFetches(0x00FF, 16, 4)
	if !ivb[0] || !ivb[1] || ivb[2] || ivb[3] {
		t.Errorf("ivb fetches = %v, want [true true false false]", ivb)
	}
	ivbHi := IvyBridge.GroupFetches(0xFF00, 16, 4)
	if ivbHi[0] || ivbHi[1] || !ivbHi[2] || !ivbHi[3] {
		t.Errorf("ivb hi fetches = %v", ivbHi)
	}
}

func TestReduction(t *testing.T) {
	if r := Reduction(100, 80); r != 0.2 {
		t.Errorf("Reduction(100,80) = %v, want 0.2", r)
	}
	if r := Reduction(0, 0); r != 0 {
		t.Errorf("Reduction(0,0) = %v, want 0", r)
	}
}
