package intrawarp

import (
	"fmt"
	"io"

	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/workloads"
)

// The public entry points take functional options so new simulator knobs
// (memory-system variants, …) can be added without growing positional
// signatures. Each option type has one unexported apply method, so an
// option passed to the wrong entry point fails to compile.

// ConfigOption adjusts a machine configuration built by NewConfig or
// NewGPU.
type ConfigOption interface {
	applyConfig(*gpu.Config) error
}

// RunOption adjusts one RunWorkload execution.
type RunOption interface {
	applyRun(*workloads.ExecOptions) error
}

// ExperimentOption adjusts a RunExperiment or RunAllExperiments sweep.
type ExperimentOption interface {
	applyExperiment(*experiments.Context) error
}

type configOptionFunc func(*gpu.Config) error

func (f configOptionFunc) applyConfig(c *gpu.Config) error { return f(c) }

type runOptionFunc func(*workloads.ExecOptions) error

func (f runOptionFunc) applyRun(e *workloads.ExecOptions) error { return f(e) }

type experimentOptionFunc func(*experiments.Context) error

func (f experimentOptionFunc) applyExperiment(c *experiments.Context) error { return f(c) }

// WithSize sets the problem scale of a workload run; 0 selects the
// workload's default. Negative sizes are rejected.
func WithSize(n int) RunOption {
	return runOptionFunc(func(e *workloads.ExecOptions) error {
		if n < 0 {
			return fmt.Errorf("intrawarp: WithSize(%d): size must be non-negative", n)
		}
		e.Size = n
		return nil
	})
}

// WithTimed selects the cycle-level simulator for a workload run; the
// default is the fast functional model.
func WithTimed() RunOption {
	return runOptionFunc(func(e *workloads.ExecOptions) error {
		e.Timed = true
		return nil
	})
}

// WithoutVerify skips the host-side result check of a workload run.
// Sweeps that re-execute one workload under many machine configurations
// verify one cell and skip the rest.
func WithoutVerify() RunOption {
	return runOptionFunc(func(e *workloads.ExecOptions) error {
		e.SkipVerify = true
		return nil
	})
}

// WithOutput directs an experiment's rendering to w; the default is
// standard output.
func WithOutput(w io.Writer) ExperimentOption {
	return experimentOptionFunc(func(c *experiments.Context) error {
		if w == nil {
			return fmt.Errorf("intrawarp: WithOutput(nil): writer must be non-nil")
		}
		c.Out = w
		return nil
	})
}

// WithQuick selects reduced problem sizes for a fast experiment run.
func WithQuick() ExperimentOption {
	return experimentOptionFunc(func(c *experiments.Context) error {
		c.Quick = true
		return nil
	})
}

// WithPolicy selects the compaction policy of the simulated machine.
func WithPolicy(p Policy) ConfigOption {
	return configOptionFunc(func(c *gpu.Config) error {
		c.EU.Policy = p
		return nil
	})
}

// WithProbe attaches an instrumentation probe to every engine run of the
// configured GPU (see the Probe interface and NewTimeline). A nil probe
// disables instrumentation — the default — and keeps the timed loop on
// its zero-allocation fast path.
func WithProbe(p Probe) ConfigOption {
	return configOptionFunc(func(c *gpu.Config) error {
		c.EU.Probe = p
		return nil
	})
}

// WithConfig replaces the whole base configuration; options listed after
// it refine the given config.
func WithConfig(cfg Config) ConfigOption {
	return configOptionFunc(func(c *gpu.Config) error {
		*c = cfg
		return nil
	})
}

// WithDCBandwidth sets the data-cluster bandwidth in cache lines per
// cycle (the paper's DC1/DC2 axis). Values below 1 are rejected.
func WithDCBandwidth(lines int) ConfigOption {
	return configOptionFunc(func(c *gpu.Config) error {
		if lines < 1 {
			return fmt.Errorf("intrawarp: WithDCBandwidth(%d): need at least 1 line/cycle", lines)
		}
		c.Mem.DCLinesPerCycle = lines
		return nil
	})
}

// WithPerfectL3 models an always-hitting L3 (the paper's perfect-L3
// sensitivity study, Fig. 12).
func WithPerfectL3() ConfigOption {
	return configOptionFunc(func(c *gpu.Config) error {
		c.Mem.PerfectL3 = true
		return nil
	})
}

// WithEngine selects the timed-run core: EngineEvent (the default)
// jumps the clock to the next scheduled wakeup, EngineTick steps every
// cycle. The cores produce bit-identical statistics; tick remains as a
// differential-testing escape hatch.
func WithEngine(e Engine) ConfigOption {
	return configOptionFunc(func(c *gpu.Config) error {
		c.Engine = e
		return nil
	})
}

// WithMaxCycles sets the timed simulator's hang guard; 0 keeps the
// default budget. Negative budgets are rejected.
func WithMaxCycles(n int64) ConfigOption {
	return configOptionFunc(func(c *gpu.Config) error {
		if n < 0 {
			return fmt.Errorf("intrawarp: WithMaxCycles(%d): budget must be non-negative", n)
		}
		c.MaxCycles = n
		return nil
	})
}

// WithWorkers bounds the experiment-cell worker pool to k goroutines.
// Values below 1 select runtime.GOMAXPROCS(0); 1 forces serial
// execution. Output is byte-identical at any worker count (see
// DESIGN.md §7).
func WithWorkers(k int) ExperimentOption {
	return experimentOptionFunc(func(c *experiments.Context) error {
		c.Workers = k
		return nil
	})
}
