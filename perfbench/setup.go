package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupChildEnv, when set to "<workload>:<seed>", makes the process set
// up that workload, print "ready" and exit: a fresh process per set-up
// sample, so lazy tables and caches start empty every time.
const setupChildEnv = "PERFBENCH_SETUP"

// setupChild is the child side of setupSampler.
func setupChild(spec string) int {
	name, seedText, _ := strings.Cut(spec, ":")
	seed, err := strconv.ParseInt(seedText, 10, 64)
	mk, ok := workloadByName[name]
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "perfbench: bad %s=%q\n", setupChildEnv, spec)
		return 2
	}
	b, err := mk(context.Background(), seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup %s: %v\n", name, err)
		return 1
	}
	fmt.Println("ready")
	b.close()
	return 0
}

// setupSampler times set-ups, each in a fresh process, from process
// start to its ready line: process start-up, package initialisation,
// input generation, construction and one warm-up op. Its samples are
// spread over the measured passes, so that their median covers the
// host's slow and fast phases during the run rather than one moment.
type setupSampler struct {
	exe, workload string
	seed          int64
	n             int
	samples       []float64
}

func newSetupSampler(workload string, seed int64, n int) (*setupSampler, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	return &setupSampler{exe: exe, workload: workload, seed: seed, n: n}, nil
}

// catchUp takes samples until they are the fraction frac of n.
func (s *setupSampler) catchUp(ctx context.Context, frac float64) error {
	for len(s.samples) < s.n && float64(len(s.samples)) < frac*float64(s.n) {
		d, err := setupOnce(ctx, s.exe, s.workload, s.seed)
		if err != nil {
			return err
		}
		s.samples = append(s.samples, d.Seconds())
	}
	return nil
}

func setupOnce(ctx context.Context, exe, workload string, seed int64) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", setupChildEnv, workload, seed))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	waitErr := cmd.Wait()
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("setup probe: no ready line (read: %v, exit: %v)", readErr, waitErr)
	}
	if waitErr != nil {
		return 0, fmt.Errorf("setup probe: %w", waitErr)
	}
	return d, nil
}

// revision returns the VCS revision the binary was built from and
// whether the tree was modified, from the build info or else from git.
func revision() (rev, dirty string) {
	rev, dirty = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	if rev != "unknown" {
		return rev, dirty
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty = strconv.FormatBool(len(st) > 0)
		}
	}
	return rev, dirty
}

// cpuModel names the host CPU (Linux), or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
