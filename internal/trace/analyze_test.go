package trace_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"intrawarp/internal/mask"
	"intrawarp/internal/oracle"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
)

// requireExhaustiveReplay replays every possible mask of the given width
// once, as one stream, and demands that Analyze's whole-stream accounting
// (instruction and lane counts, utilization histogram, per-policy cycle
// totals) matches an independent per-record tally built from the oracle
// model.
func requireExhaustiveReplay(t *testing.T, width int) {
	t.Helper()
	n := 1 << width
	recs := make([]trace.Record, 0, n)
	for m := 0; m < n; m++ {
		recs = append(recs, trace.Record{Width: uint8(width), Group: 4, Mask: mask.Mask(m)})
	}
	run := trace.Analyze("exhaustive", &trace.SliceSource{Records: recs})

	var active int64
	var buckets [stats.Quartiles]int64
	var cycles [oracle.NumPolicies]int64
	for m := 0; m < n; m++ {
		pop := bits.OnesCount32(uint32(m))
		active += int64(pop)
		if pop > 0 {
			// Bucket q holds populations in (q*W/4, (q+1)*W/4].
			buckets[(pop*stats.Quartiles-1)/width]++
		}
		for p, c := range oracle.AllCycles(uint32(m), width, 4) {
			cycles[p] += int64(c)
		}
	}

	if run.Width != width || run.Instructions != int64(n) ||
		run.ActiveLanes != active || run.TotalLanes != int64(n*width) {
		t.Fatalf("width %d: width=%d instructions=%d active=%d total=%d, want %d/%d/%d/%d",
			width, run.Width, run.Instructions, run.ActiveLanes, run.TotalLanes,
			width, n, active, n*width)
	}
	if len(run.Hist) != 1 {
		t.Fatalf("width %d: histogram has %d widths, want 1", width, len(run.Hist))
	}
	h := run.Hist[width]
	if h == nil || h.Empty != 1 || h.Buckets != buckets {
		t.Fatalf("width %d: histogram = %+v, want empty=1 buckets=%v", width, h, buckets)
	}
	for p := 0; p < oracle.NumPolicies; p++ {
		if run.PolicyCycles[p] != cycles[p] {
			t.Fatalf("width %d policy %s: replay=%d oracle=%d",
				width, oracle.PolicyName(p), run.PolicyCycles[p], cycles[p])
		}
	}
}

// TestReplayExhaustiveSIMD16 replays all 65536 SIMD16 masks as one trace.
func TestReplayExhaustiveSIMD16(t *testing.T) { requireExhaustiveReplay(t, 16) }

// TestReplayExhaustiveSIMD8 replays all 256 SIMD8 masks as one trace.
func TestReplayExhaustiveSIMD8(t *testing.T) { requireExhaustiveReplay(t, 8) }

// TestReplayCostsMatchOracle pins trace replay (Analyze, which prices
// each record through compaction's cost table) to the independent oracle
// model: exhaustively at SIMD8/SIMD16, randomized at SIMD32.
func TestReplayCostsMatchOracle(t *testing.T) {
	check := func(m uint32, width int) {
		t.Helper()
		recs := []trace.Record{{Width: uint8(width), Group: 4, Mask: mask.Mask(m)}}
		run := trace.Analyze("oracle", &trace.SliceSource{Records: recs})
		want := oracle.AllCycles(m, width, 4)
		for p := 0; p < oracle.NumPolicies; p++ {
			if got := run.PolicyCycles[p]; got != int64(want[p]) {
				t.Fatalf("mask %#x width %d policy %s: replay=%d oracle=%d",
					m, width, oracle.PolicyName(p), got, want[p])
			}
		}
	}
	for m := 0; m < 1<<8; m++ {
		check(uint32(m), 8)
	}
	for m := 0; m < 1<<16; m++ {
		check(uint32(m), 16)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		check(rng.Uint32(), 32)
	}
}

// TestReplayOracleCheckTrace runs the record-level oracle invariant
// checker over a randomized trace, covering the memoized SCC schedules
// the verification path exercises during sweeps.
func TestReplayOracleCheckTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := make([]trace.Record, 2000)
	for i := range recs {
		recs[i] = trace.Record{Width: 16, Group: 4, Mask: mask.Mask(rng.Uint32())}
	}
	if v, n := oracle.CheckTrace(&trace.SliceSource{Records: recs}, nil); v != nil {
		t.Fatalf("oracle violation after %d records: %v", n, v)
	}
}

// BenchmarkAnalyze measures offline trace analysis over a divergent
// SIMD16 stream shaped like real workload traces (mixed full, partial,
// and empty masks).
func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	recs := make([]trace.Record, 1<<16)
	for i := range recs {
		var m mask.Mask
		switch rng.Intn(4) {
		case 0:
			m = mask.Full(16)
		case 1:
			m = mask.Mask(rng.Uint32()) & mask.Full(16)
		case 2:
			m = mask.Mask(rng.Uint32()) & mask.Mask(rng.Uint32()) & mask.Full(16)
		case 3:
			m = mask.Mask(1) << uint(rng.Intn(16))
		}
		recs[i] = trace.Record{Width: 16, Group: 4, Mask: m}
	}
	b.SetBytes(int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Analyze("bench", &trace.SliceSource{Records: recs})
	}
}
