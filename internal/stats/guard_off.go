//go:build !statsguard

package stats

// writerGuard is the release-build placeholder for the single-writer
// ownership check: zero-sized, and its methods compile to nothing. Build
// with `-tags statsguard` to enable the real check (see guard_on.go).
type writerGuard struct{}

func (writerGuard) assertOwner() {}
