//go:build !statsguard

package stats

// The statsguard build reads the writing goroutine's id off the stack on
// every record, which allocates by design, so this file is excluded there.

import "testing"

// TestRecordInstrZeroAlloc pins the per-instruction hot path as
// allocation-free once the width's histogram exists, at every cost-table
// tier (direct SIMD8/SIMD16, SIMD32 closed forms, reference fallback).
func TestRecordInstrZeroAlloc(t *testing.T) {
	r := NewRun("alloc", 16)
	for _, w := range []int{8, 16, 32} {
		r.RecordInstr(w, 4, 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.RecordInstr(16, 4, 0xAAAA)
		r.RecordInstr(8, 4, 0x13)
		r.RecordInstr(32, 4, 0xF00F1234)
		r.RecordInstr(16, 2, 0x0F0F)
	})
	if allocs != 0 {
		t.Fatalf("RecordInstr allocates %.1f times per run, want 0", allocs)
	}
}
