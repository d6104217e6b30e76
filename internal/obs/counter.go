package obs

import "sync"

// Counts is a Probe that tallies launches by engine — the cheap recorder
// behind the sweep engine's "trace once" guarantee: a test attaches one
// Counts to every cell of a sweep (via ContextWithProbes) and asserts the
// number of functional executions matches the number of distinct
// workloads, not the number of cells. Safe for concurrent use:
// concurrent sweep cells may all drive it.
type Counts struct {
	NullProbe
	mu       sync.Mutex
	launches map[string]int
}

// LaunchBegin implements Probe.
func (c *Counts) LaunchBegin(e LaunchEvent) {
	c.mu.Lock()
	if c.launches == nil {
		c.launches = make(map[string]int)
	}
	c.launches[e.Engine]++
	c.mu.Unlock()
}

// Launches returns how many launches the given engine reported.
func (c *Counts) Launches(engine string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.launches[engine]
}
