package compaction

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"intrawarp/internal/mask"
)

// checkTableRow compares every policy's table cost for one mask with the
// per-policy reference, through both Cycles and CostAll.
func checkTableRow(t *testing.T, m mask.Mask, width int) {
	t.Helper()
	all := CostAll(m, width, 4)
	for _, p := range Policies {
		want := p.referenceCycles(m, width, 4)
		if got := p.Cycles(m, width, 4); got != want {
			t.Fatalf("SIMD%d %s(%#x): table %d, reference %d", width, p, uint32(m), got, want)
		}
		if all[p] != want {
			t.Fatalf("SIMD%d CostAll(%#x)[%s] = %d, reference %d", width, uint32(m), p, all[p], want)
		}
	}
}

// TestCostTableExhaustive checks every SIMD8 and SIMD16 group-4 table
// entry against the per-policy reference for all seven policies, plus
// the high-lane bits a wider mask may carry (the table truncates).
func TestCostTableExhaustive(t *testing.T) {
	for m := 0; m < 1<<8; m++ {
		checkTableRow(t, mask.Mask(m), 8)
		checkTableRow(t, mask.Mask(m)|0xFF00, 8)
	}
	for m := 0; m < 1<<16; m++ {
		checkTableRow(t, mask.Mask(m), 16)
	}
	checkTableRow(t, 0xFFFF0000, 16)
}

// TestCostTableSIMD32ClosedForms checks the SIMD32 closed forms against
// the reference on random masks and on the structured corners (empty,
// full, single lanes, single sub-warps, one lane per quad).
func TestCostTableSIMD32ClosedForms(t *testing.T) {
	corners := []mask.Mask{0, 0xFFFFFFFF, 0x11111111, 0x88888888, 0x0000FFFF, 0xFFFF0000, 0x000000FF, 0xFF000000}
	for i := 0; i < 32; i++ {
		corners = append(corners, mask.Mask(1)<<uint(i))
	}
	for _, m := range corners {
		checkTableRow(t, m, 32)
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 20000; i++ {
		// Sparse, dense and uniform masks hit every quad/sub-warp mix.
		m := mask.Mask(rng.Uint32())
		switch i % 3 {
		case 1:
			m &= mask.Mask(rng.Uint32())
		case 2:
			m |= mask.Mask(rng.Uint32())
		}
		checkTableRow(t, m, 32)
	}
}

// TestCostTableFallbackShapes checks that uncovered shapes still charge
// the reference: other group sizes, and SIMD widths without a table row.
func TestCostTableFallbackShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		m := mask.Mask(rng.Uint32())
		for _, s := range []struct{ width, group int }{{4, 4}, {1, 4}, {16, 2}, {16, 8}, {32, 1}, {8, 2}} {
			if tableCosts(m, s.width, s.group) != 0 {
				t.Fatalf("shape %v served from the table", s)
			}
			all := CostAll(m, s.width, s.group)
			for _, p := range Policies {
				want := p.referenceCycles(m, s.width, s.group)
				if got := p.Cycles(m, s.width, s.group); got != want || all[p] != want {
					t.Fatalf("SIMD%d group %d %s(%#x): Cycles %d, CostAll %d, reference %d",
						s.width, s.group, p, uint32(m), got, all[p], want)
				}
			}
		}
	}
}

// TestCostTableConcurrentFill hammers lazy fills from many goroutines on
// a fresh table (run it under -race): every reader must see the word the
// reference produces, however the fills interleave.
func TestCostTableConcurrentFill(t *testing.T) {
	tab := make([]atomic.Uint32, 1<<16)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 1<<14; i++ {
				m := mask.Mask(uint32(i*2654435761+seed) & 0xFFFF)
				w := fillCosts(&tab[m], m, 16)
				// Reads of the process-wide table race with fills too.
				all := CostAll(m, 16, 4)
				for _, p := range Policies {
					if w.cycles(p) != all[p] || all[p] != p.referenceCycles(m, 16, 4) {
						errs <- p.String()
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent fill produced a wrong %s cost", bad)
	}
}

// TestCostAllZeroAlloc pins the allocation-free contract of the cost
// lookup on every tier: direct table, SIMD32 closed forms, reference.
func TestCostAllZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		CostAll(0xAAAA, 16, 4)
		CostAll(0x13, 8, 4)
		CostAll(0xF00F1234, 32, 4)
		CostAll(0xF0F0, 16, 2)
		SCC.Cycles(0x0F0F, 16, 4)
	})
	if allocs != 0 {
		t.Fatalf("CostAll allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkCostAll measures the table read at SIMD16, the common shape.
func BenchmarkCostAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CostAll(mask.Mask(uint32(i)), 16, 4)
	}
}
