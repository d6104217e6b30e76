package compaction_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
	"intrawarp/internal/oracle"
)

// checkPrice compares one instruction's price through every cost entry
// point (Cycles, Price, CostAll, SwizzleCount) with the independent
// oracle model's cycles and Fig. 6 swizzle count. A mask may carry lanes
// above width; every entry point must ignore them.
func checkPrice(t *testing.T, m mask.Mask, width, group int) {
	t.Helper()
	bits := uint32(m.Trunc(width))
	want := oracle.AllCycles(bits, width, group)
	wantSwz := oracle.SCCSwizzles(bits, width, group)
	all := compaction.CostAll(m, width, group)
	for _, p := range compaction.Policies {
		c, swz := p.Price(m, width, group)
		pSwz := 0 // only SCC routes operands through the crossbar
		if p == compaction.SCC {
			pSwz = wantSwz
		}
		if c != want[p] || swz != pSwz {
			t.Fatalf("SIMD%d group %d %s.Price(%#x) = (%d, %d), oracle (%d, %d)",
				width, group, p, uint32(m), c, swz, want[p], pSwz)
		}
		if got := p.Cycles(m, width, group); got != want[p] {
			t.Fatalf("SIMD%d group %d %s(%#x): Cycles %d, oracle %d", width, group, p, uint32(m), got, want[p])
		}
		if all[p] != want[p] {
			t.Fatalf("SIMD%d group %d CostAll(%#x)[%s] = %d, oracle %d", width, group, uint32(m), p, all[p], want[p])
		}
	}
	if got := compaction.SwizzleCount(m, width, group); got != wantSwz {
		t.Fatalf("SIMD%d group %d SwizzleCount(%#x) = %d, oracle %d", width, group, uint32(m), got, wantSwz)
	}
}

// randomMask draws sparse, dense and uniform masks in turn, so every
// quad and sub-warp mix shows up.
func randomMask(rng *rand.Rand, i int) mask.Mask {
	m := mask.Mask(rng.Uint32())
	switch i % 3 {
	case 1:
		m &= mask.Mask(rng.Uint32())
	case 2:
		m |= mask.Mask(rng.Uint32())
	}
	return m
}

// TestCostTableExhaustive checks every SIMD8 and SIMD16 group-4 table
// entry, cycles under all seven policies and the swizzle count, against
// the oracle, plus the high-lane bits a wider mask may carry.
func TestCostTableExhaustive(t *testing.T) {
	for m := 0; m < 1<<8; m++ {
		checkPrice(t, mask.Mask(m), 8, 4)
		checkPrice(t, mask.Mask(m)|0xFF00, 8, 4)
	}
	for m := 0; m < 1<<16; m++ {
		checkPrice(t, mask.Mask(m), 16, 4)
	}
	checkPrice(t, 0xFFFF0000, 16, 4)
}

// TestCostTableSIMD32ClosedForms checks the untabled SIMD32 group-4 price against
// the oracle on the structured corners (empty, full, single lanes,
// single sub-warps, one lane per quad) and on random masks.
func TestCostTableSIMD32ClosedForms(t *testing.T) {
	corners := []mask.Mask{0, 0xFFFFFFFF, 0x11111111, 0x88888888, 0x0000FFFF, 0xFFFF0000, 0x000000FF, 0xFF000000,
		0x0000000F, 0xF0000000, 0x000F000F, 0x7777FFFF}
	for i := 0; i < 32; i++ {
		corners = append(corners, mask.Mask(1)<<uint(i))
	}
	for _, m := range corners {
		checkPrice(t, m, 32, 4)
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 20000; i++ {
		checkPrice(t, randomMask(rng, i), 32, 4)
	}
}

// TestCostTableFallbackShapes checks the shapes the table does not cover:
// groups 1, 2 and 8 (16- and 64-bit datatypes, and the degenerate
// single-lane group) at every SIMD width, and group 4 below SIMD8.
func TestCostTableFallbackShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		m := randomMask(rng, i)
		for _, group := range []int{1, 2, 8} {
			for _, width := range []int{1, 4, 8, 16, 32} {
				if compaction.Tabled(m, width, group) {
					t.Fatalf("SIMD%d group %d served from the table", width, group)
				}
				checkPrice(t, m, width, group)
			}
		}
		checkPrice(t, m, 1, 4)
		checkPrice(t, m, 4, 4)
	}
}

// TestCostTableConcurrentFill hammers lazy fills from many goroutines on
// a fresh table (run it under -race): every reader must see the price the
// oracle computes, however the fills interleave. Every goroutine walks all
// 65536 masks in the same scrambled order, starting a few masks apart, so
// each slot is filled and read by all of them at nearly the same time.
// The oracle's prices are computed once up front, so the goroutines spend
// their time on the table, not on the reference model.
func TestCostTableConcurrentFill(t *testing.T) {
	type price struct {
		cycles [compaction.NumPolicies]int
		swz    int
	}
	want := make([]price, 1<<16)
	for m := range want {
		want[m] = price{oracle.AllCycles(uint32(m), 16, 4), oracle.SCCSwizzles(uint32(m), 16, 4)}
	}
	tab := make([]atomic.Uint32, 1<<16)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan uint32, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := 0; i < 1<<16; i++ {
				// An odd multiplier permutes the 16-bit masks.
				m := mask.Mask(uint32((i+start)*2654435761) & 0xFFFF)
				cycles, swz := compaction.FillSlot(&tab[m], m, 16)
				// Reads of the process-wide table race with fills too.
				if cycles != want[m].cycles || swz != want[m].swz || compaction.CostAll(m, 16, 4) != cycles {
					errs <- uint32(m)
					return
				}
			}
		}(3 * g)
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent fill produced a wrong price for mask %#x", bad)
	}
}

// TestCostAllZeroAlloc pins the allocation-free contract of the cost
// lookup on both paths: the direct table and the computed price.
func TestCostAllZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		compaction.CostAll(0xAAAA, 16, 4)
		compaction.CostAll(0x13, 8, 4)
		compaction.CostAll(0xF00F1234, 32, 4)
		compaction.CostAll(0xF0F0, 16, 2)
		compaction.SCC.Cycles(0x0F0F, 16, 4)
		compaction.SCC.Price(0xF00F1234, 32, 4)
	})
	if allocs != 0 {
		t.Fatalf("CostAll allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkCostAll measures the table read at SIMD16, the common shape.
func BenchmarkCostAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = compaction.CostAll(mask.Mask(uint32(i)), 16, 4)
	}
}
