package stats

import (
	"math/rand"
	"reflect"
	"testing"

	"intrawarp/internal/mask"
)

// synthInstr is one recorded instruction of the synthetic stream.
type synthInstr struct {
	width, group int
	m            mask.Mask
}

// synthStream builds a deterministic pseudo-random instruction stream
// mixing widths, empty masks, and divergence patterns.
func synthStream(n int, seed int64) []synthInstr {
	rng := rand.New(rand.NewSource(seed))
	widths := []int{8, 16, 32}
	out := make([]synthInstr, n)
	for i := range out {
		w := widths[rng.Intn(len(widths))]
		var m mask.Mask
		switch rng.Intn(4) {
		case 0: // fully coherent
			m = mask.Full(w)
		case 1: // empty
			m = 0
		default:
			m = mask.Mask(rng.Uint32())
		}
		out[i] = synthInstr{width: w, group: 4, m: m}
	}
	return out
}

// record plays a slice of the stream into a run, including the window
// counters a timed shard would carry.
func record(r *Run, stream []synthInstr, rng *rand.Rand) {
	for _, in := range stream {
		r.RecordInstr(in.width, in.group, in.m)
		r.Windows[StallKind(rng.Intn(int(NumStallKinds)))]++
	}
	r.LaneCycles += int64(len(stream)) * 3
	r.QuadFetches += int64(len(stream))
}

// TestMergeShardsEqualsUnsharded is the property multi-launch workloads
// depend on: merging per-launch accumulations in order produces exactly
// the same Run — WidthHist totals, stall windows, policy cycles, energy
// proxies — as accumulating the whole stream into one Run.
func TestMergeShardsEqualsUnsharded(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 16} {
		stream := synthStream(5000, 42)

		whole := NewRun("whole", 16)
		record(whole, stream, rand.New(rand.NewSource(7)))

		// The window-kind sequence must match between the two runs, so
		// re-derive it shard by shard from the same seed.
		rng := rand.New(rand.NewSource(7))
		merged := NewRun("merged", 16)
		per := (len(stream) + shards - 1) / shards
		for lo := 0; lo < len(stream); lo += per {
			hi := lo + per
			if hi > len(stream) {
				hi = len(stream)
			}
			shard := NewRun("shard", 16)
			record(shard, stream[lo:hi], rng)
			merged.Merge(shard)
		}

		if whole.Instructions != merged.Instructions ||
			whole.ActiveLanes != merged.ActiveLanes ||
			whole.TotalLanes != merged.TotalLanes {
			t.Fatalf("shards=%d: lane counters diverge: %+v vs %+v", shards, whole, merged)
		}
		if whole.PolicyCycles != merged.PolicyCycles {
			t.Fatalf("shards=%d: policy cycles %v != %v", shards, whole.PolicyCycles, merged.PolicyCycles)
		}
		if whole.Windows != merged.Windows {
			t.Fatalf("shards=%d: windows %v != %v", shards, whole.Windows, merged.Windows)
		}
		for k := StallKind(0); k < NumStallKinds; k++ {
			if whole.WindowShare(k) != merged.WindowShare(k) {
				t.Fatalf("shards=%d: share(%s) %v != %v", shards, k, whole.WindowShare(k), merged.WindowShare(k))
			}
		}
		if whole.EnergyProxy() != merged.EnergyProxy() {
			t.Fatalf("shards=%d: energy %v != %v", shards, whole.EnergyProxy(), merged.EnergyProxy())
		}
		if len(whole.Hist) != len(merged.Hist) {
			t.Fatalf("shards=%d: hist widths %d != %d", shards, len(whole.Hist), len(merged.Hist))
		}
		for w, h := range whole.Hist {
			mh := merged.Hist[w]
			if mh == nil {
				t.Fatalf("shards=%d: merged lost width %d", shards, w)
			}
			if !reflect.DeepEqual(h.Buckets, mh.Buckets) || h.Empty != mh.Empty {
				t.Fatalf("shards=%d width %d: %+v != %+v", shards, w, h, mh)
			}
			if h.Total() != mh.Total() {
				t.Fatalf("shards=%d width %d: totals %d != %d", shards, w, h.Total(), mh.Total())
			}
		}
	}
}
