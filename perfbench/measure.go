package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// bench is one prepared workload. Every pass replays the same plan, so
// the digests and exact counts of one pass repeat in every other.
type bench interface {
	// pass runs the plan once. env.tr is nil on untraced passes.
	pass(ctx context.Context, env *passEnv) (*passResult, error)
	// cost is the robust host time of one pass, in seconds.
	cost(passes []*passResult) float64
	// latency is what a user of the workload waits for, in ms.
	latency(passes []*passResult) float64
	// describe names the inputs and their sizes for the provenance line.
	describe() string
	close()
}

// passEnv is what a pass reports into besides its result.
type passEnv struct {
	tr   *tracer
	heap *heapSampler
}

// passResult is one pass over a workload's plan.
type passResult struct {
	wall time.Duration
	// ops are the units checked for correctness: timed runs, sweep
	// cells, or HTTP requests.
	ops []op
	// lat times the pass's ops (timed runs, Sweep.Run calls, HTTP
	// requests); keys repeat across passes.
	lat []sample
	// instr counts simulated instructions executed by an engine (cache
	// hits and trace replays execute none).
	instr int64
	// counts are exact per-layer counts of the pass, by metric name.
	counts map[string]float64
}

// op is one checked result.
type op struct {
	key    string // content identity: equal keys must give equal digests
	digest string
	err    error
}

// sample is one measured wait.
type sample struct {
	key   string
	class string
	d     time.Duration
}

// runPasses repeats passes until seconds have elapsed and at least
// minPasses are done, checking every op. If after is not nil, it runs
// after every pass with the share of the seconds used so far.
func runPasses(ctx context.Context, b bench, chk *checker, env *passEnv, seconds float64, minPasses int, after func(context.Context, float64) error) ([]*passResult, error) {
	var passes []*passResult
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < seconds {
		p, err := b.pass(ctx, env)
		if err != nil {
			return nil, err
		}
		chk.check(p.ops)
		passes = append(passes, p)
		if after != nil {
			if err := after(ctx, time.Since(start).Seconds()/seconds); err != nil {
				return nil, err
			}
		}
	}
	return passes, nil
}

// opCost sums, over the plan's ops, the q-quantile of each op's time
// across passes.
func opCost(passes []*passResult, q float64) float64 {
	byKey := map[string][]float64{}
	for _, p := range passes {
		for _, s := range p.lat {
			byKey[s.key] = append(byKey[s.key], s.d.Seconds())
		}
	}
	var t float64
	for _, ds := range byKey {
		t += quantile(ds, q)
	}
	return t
}

// classLatency is the q-quantile, in ms, of the waits of one class of
// op over all passes.
func classLatency(passes []*passResult, class string, q float64) float64 {
	var waits []float64
	for _, p := range passes {
		for _, s := range p.lat {
			if s.class == class {
				waits = append(waits, ms(s.d))
			}
		}
	}
	return quantile(waits, q)
}

// wallCost is the median wall time of a pass.
func wallCost(passes []*passResult) float64 {
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
	}
	return median(walls)
}

// measureEndToEnd runs untraced passes for the requested time, with the
// set-up samples between them, and derives the end-to-end metrics.
func measureEndToEnd(ctx context.Context, b bench, chk *checker, opts options) (map[string]metric, error) {
	setup, err := newSetupSampler(opts.workload, opts.seed, opts.setupRuns)
	if err != nil {
		return nil, err
	}
	env := &passEnv{heap: &heapSampler{}}
	rt0 := readRuntime()
	passes, err := runPasses(ctx, b, chk, env, opts.seconds, opts.minPasses, setup.catchUp)
	if err != nil {
		return nil, err
	}
	rt := readRuntime().sub(rt0)
	if err := setup.catchUp(ctx, 1); err != nil {
		return nil, err
	}
	cost := b.cost(passes)
	first := passes[0]
	nOps := len(first.ops) * len(passes)
	fmt.Fprintf(chk.log, "# passes=%d ops_per_pass=%d pass_cost_s=%.4f\n", len(passes), len(first.ops), cost)
	return map[string]metric{
		"setup_s":         {median(setup.samples), "s"},
		"ops_per_s":       {float64(len(first.ops)) / cost, "op/s"},
		"sim_instr_per_s": {float64(first.instr) / cost, "instr/s"},
		"latency_ms":      {b.latency(passes), "ms"},
		"alloc_kb_per_op": {rt.allocBytes / 1024 / float64(nOps), "KiB/op"},
		"live_heap_mb":    {env.heap.mib(0.5), "MiB"},
	}, nil
}

// heapSampler records the live heap (as of the latest GC) at op
// boundaries. Its median is steady from run to run; its maximum is an
// extreme value that is not, so only the median is gated. Safe for
// concurrent use.
type heapSampler struct {
	mu      sync.Mutex
	samples []float64
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, float64(s[0].Value.Uint64()))
	h.mu.Unlock()
}

// mib returns the q-quantile of the samples in MiB.
func (h *heapSampler) mib(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(h.samples, q) / (1 << 20)
}

// runtimeTotals are cumulative Go runtime counters.
type runtimeTotals struct {
	allocBytes, allocObjects, gcCycles float64
}

func readRuntime() runtimeTotals {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(s[i].Value.Uint64())
	}
	return runtimeTotals{v(0), v(1), v(2)}
}

func (a runtimeTotals) sub(b runtimeTotals) runtimeTotals {
	return runtimeTotals{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
