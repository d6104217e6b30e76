package oracle

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/gpu"
	"intrawarp/internal/mask"
	"intrawarp/internal/workloads"
)

// specsFor resolves a workload subset or fails the test.
func specsFor(t *testing.T, names ...string) []*workloads.Spec {
	t.Helper()
	var specs []*workloads.Spec
	for _, n := range names {
		s, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestDiffCatchesSeededSCCFault is the acceptance check for the whole
// harness: seed an off-by-one into a scratch branch of the SCC cost
// model (via Options.Cost, so the real engine is untouched), prove Diff
// catches it on the first workload with a minimized repro, then revert
// the fault and prove the same run is clean. If this test ever passes
// with the fault in place, the verification subsystem is decorative.
func TestDiffCatchesSeededSCCFault(t *testing.T) {
	faulty := func(p compaction.Policy, m mask.Mask, width, group int) int {
		c := EngineCost(p, m, width, group)
		if p == compaction.SCC && PopCount(uint32(m), width) > group {
			c++ // the seeded off-by-one: overcharge compressible masks
		}
		return c
	}

	specs := specsFor(t, "vecadd", "nw")
	_, err := Diff(context.Background(), Options{Specs: specs, Quick: true, Cost: faulty})
	if err == nil {
		t.Fatal("Diff accepted an SCC cost model with a seeded off-by-one")
	}
	d, ok := err.(*Divergence)
	if !ok {
		t.Fatalf("Diff returned %T (%v), want *Divergence", err, err)
	}
	if d.Repro == nil {
		t.Fatalf("divergence carries no repro: %v", d)
	}
	if d.Repro.Rule != "cost/scc-exact" {
		t.Errorf("repro rule = %q, want cost/scc-exact", d.Repro.Rule)
	}
	// Minimization must land on a local minimum: the smallest popcount
	// that still triggers the fault is group+1 enabled lanes.
	if pop := bits.OnesCount32(d.Repro.Mask); pop != d.Repro.Group+1 {
		t.Errorf("minimized mask %#x has %d enabled lanes, want %d", d.Repro.Mask, pop, d.Repro.Group+1)
	}
	gt := d.Repro.GoTest()
	wantName := fmt.Sprintf("func TestVerifyRepro_SCC_SIMD%d_G%d_Mask%X(t *testing.T)",
		d.Repro.Width, d.Repro.Group, d.Repro.Mask)
	for _, want := range []string{wantName, "compaction.SCC.Cycles"} {
		if !strings.Contains(gt, want) {
			t.Errorf("rendered repro lacks %q:\n%s", want, gt)
		}
	}

	// Fault reverted: the identical run must pass.
	sum, err := Diff(context.Background(), Options{Specs: specs, Quick: true})
	if err != nil {
		t.Fatalf("clean run diverged: %v", err)
	}
	if sum.Workloads != len(specs) || sum.Records == 0 {
		t.Fatalf("clean run covered %d workloads, %d records; want %d workloads and records > 0",
			sum.Workloads, sum.Records, len(specs))
	}
}

// TestDiffCatchesSeededBCCFault seeds the complementary fault — BCC
// undercounting by one on masks with a dead quad — to show the harness
// localizes the policy correctly rather than blaming SCC for everything.
func TestDiffCatchesSeededBCCFault(t *testing.T) {
	faulty := func(p compaction.Policy, m mask.Mask, width, group int) int {
		c := EngineCost(p, m, width, group)
		if p == compaction.BCC && c > 1 && ActiveGroups(uint32(m), width, group) < Groups(width, group) {
			c--
		}
		return c
	}
	_, err := Diff(context.Background(), Options{Specs: specsFor(t, "nw"), Quick: true, Cost: faulty})
	if err == nil {
		t.Fatal("Diff accepted a BCC cost model with a seeded undercount")
	}
	d, ok := err.(*Divergence)
	if !ok || d.Repro == nil {
		t.Fatalf("want *Divergence with repro, got %v", err)
	}
	if d.Repro.Rule != "cost/bcc-exact" {
		t.Errorf("repro rule = %q, want cost/bcc-exact", d.Repro.Rule)
	}
}

// TestTraceCheckerStreamsSeededFaults installs the streaming checker as
// the functional engine's visitor, as a verified sweep does, and proves
// it catches both seeded faults with no trace buffered, then runs clean
// once the fault is reverted.
func TestTraceCheckerStreamsSeededFaults(t *testing.T) {
	scc := func(p compaction.Policy, m mask.Mask, width, group int) int {
		c := EngineCost(p, m, width, group)
		if p == compaction.SCC && PopCount(uint32(m), width) > group {
			c++
		}
		return c
	}
	bcc := func(p compaction.Policy, m mask.Mask, width, group int) int {
		c := EngineCost(p, m, width, group)
		if p == compaction.BCC && c > 1 && ActiveGroups(uint32(m), width, group) < Groups(width, group) {
			c--
		}
		return c
	}
	spec := specsFor(t, "nw")[0]
	for _, c := range []struct {
		cost CostFunc
		rule string
	}{{scc, "cost/scc-exact"}, {bcc, "cost/bcc-exact"}, {nil, ""}} {
		chk := &TraceChecker{Cost: c.cost}
		_, err := workloads.ExecuteCtx(context.Background(), gpu.New(gpu.DefaultConfig()), spec,
			workloads.ExecOptions{Size: workloads.QuickSize(spec), Visit: chk.Visit})
		if err != nil {
			t.Fatal(err)
		}
		v, n := chk.Result()
		switch {
		case c.rule == "" && v != nil:
			t.Errorf("clean cost model: violation after %d records: %v", n, v)
		case c.rule == "" && n == 0:
			t.Error("clean cost model: checker saw no records")
		case c.rule != "" && (v == nil || v.Rule != c.rule):
			t.Errorf("seeded %s fault: got violation %v, want rule %s", c.rule, v, c.rule)
		}
	}
}

// TestDiffTimedSmoke runs the full five-stage pipeline — including the
// timed engine under all seven policies — on one small multi-launch
// workload. Multi-launch matters: per-launch EU statistics and
// cross-launch timing-state resets are exactly what stage 5 verifies
// (both were broken before this harness existed; see DESIGN.md §10).
func TestDiffTimedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timed runs under seven policies")
	}
	sum, err := Diff(context.Background(), Options{Specs: specsFor(t, "bfs"), Quick: true, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.TimedRuns != NumPolicies {
		t.Fatalf("covered %d timed runs, want %d", sum.TimedRuns, NumPolicies)
	}
}

// TestMinimizeFixpoint checks the shrinker's contract on a synthetic
// predicate: the result still fails, and clearing any single remaining
// lane stops it failing (local minimality).
func TestMinimizeFixpoint(t *testing.T) {
	failing := func(bits32 uint32, width int) bool {
		return PopCount(bits32, width) >= 3 && laneOn(bits32, width, 1)
	}
	got, w := Minimize(0xBEEF, 16, 4, failing)
	if !failing(got, w) {
		t.Fatalf("Minimize(0xBEEF) = %#x width %d: no longer failing", got, w)
	}
	if pop := bits.OnesCount32(got); pop != 3 {
		t.Errorf("minimized to %d lanes, want 3 (%#x)", pop, got)
	}
	for i := 0; i < w; i++ {
		if got>>uint(i)&1 == 1 {
			if failing(got&^(1<<uint(i)), w) {
				t.Errorf("not a local minimum: clearing lane %d of %#x still fails", i, got)
			}
		}
	}
}
