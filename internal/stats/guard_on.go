//go:build statsguard

package stats

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
)

// writerGuard asserts that a Run accumulator has exactly one writing
// goroutine for its whole life. Every engine run and every experiment or
// sweep cell accumulates into a Run it owns; this debug check (enabled
// with `-tags statsguard`) catches accidental sharing — e.g. two cells
// handed the same Run — before it silently corrupts counters. The check
// is too slow for release builds (it reads the goroutine id off the
// stack), which is exactly why it lives behind a build tag.
type writerGuard struct {
	owner atomic.Int64 // goroutine id of the current writer; 0 = unowned
}

// goid returns the current goroutine's id by parsing the runtime stack
// header ("goroutine N [running]:"). Slow, debug-only.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return -1
	}
	id, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// assertOwner claims the accumulator for the calling goroutine on first
// write and panics if a different goroutine writes later.
func (g *writerGuard) assertOwner() {
	id := goid()
	if g.owner.CompareAndSwap(0, id) {
		return
	}
	if got := g.owner.Load(); got != id {
		panic(fmt.Sprintf("stats: concurrent Run mutation: goroutine %d wrote to an accumulator owned by goroutine %d", id, got))
	}
}
