package gpu

import (
	"context"
	"errors"
	"testing"

	"intrawarp/internal/eu"
	"intrawarp/internal/isa"
)

// TestRunFunctionalCtxCancelStopsAtWorkgroup cancels a functional run
// from inside the first workgroup and requires that no later
// workgroup starts: the engine's cancellation points sit at workgroup
// boundaries, so exactly the in-flight workgroup may finish.
func TestRunFunctionalCtxCancelStopsAtWorkgroup(t *testing.T) {
	const n, group = 64 * 32, 64 // 32 workgroups
	g := New(DefaultConfig())
	spec, _, _, _ := launchVecAdd(t, g, vecAddKernel(t, isa.SIMD16), n)

	ctx, cancel := context.WithCancel(context.Background())
	seen := map[int]bool{}
	visit := func(wg, thread int, res eu.ExecResult) {
		seen[wg] = true
		cancel()
	}
	run, err := g.RunFunctionalCtx(ctx, spec, visit)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if run != nil {
		t.Fatal("cancelled run returned partial statistics")
	}
	if len(seen) > 1 {
		t.Fatalf("%d workgroups ran after cancellation inside the first", len(seen))
	}
}

// TestRunCtxCancelledTimed requires the cycle-level engine to notice a
// dead context within its bounded check window.
func TestRunCtxCancelledTimed(t *testing.T) {
	g := New(DefaultConfig())
	spec, _, _, _ := launchVecAdd(t, g, vecAddKernel(t, isa.SIMD16), 256)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, err := g.RunCtx(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if run != nil {
		t.Fatal("cancelled run returned partial statistics")
	}

	// A live context must leave the result untouched.
	run, err = g.RunCtx(context.Background(), spec)
	if err != nil || run == nil {
		t.Fatalf("uncancelled RunCtx: %v", err)
	}
}
