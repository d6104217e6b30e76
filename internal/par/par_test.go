package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", Workers(0))
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("negative worker counts must normalize to GOMAXPROCS")
	}
	if Workers(1) != 1 || Workers(7) != 7 {
		t.Fatal("positive worker counts must pass through")
	}
}

func TestForCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 257
		var hits [n]atomic.Int32
		For(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForSerialOrder(t *testing.T) {
	// workers=1 must run inline and in order.
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestForEmpty(t *testing.T) {
	For(4, 0, func(int) { t.Fatal("fn called for n=0") })
	For(4, -1, func(int) { t.Fatal("fn called for n<0") })
}

func TestForErrLowestIndexWins(t *testing.T) {
	wantErr := errors.New("item 3")
	err := ForErr(8, 10, func(i int) error {
		switch i {
		case 3:
			return wantErr
		case 7:
			return fmt.Errorf("item 7")
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("ForErr = %v, want the lowest-indexed error", err)
	}
	if err := ForErr(8, 10, func(int) error { return nil }); err != nil {
		t.Fatalf("ForErr on success = %v", err)
	}
}

// TestForCarriesWorkerPanicToCaller requires a panic on a worker
// goroutine to reach the caller's recover with its original value, after
// every other item has run: a recover up the caller's stack (a server's
// request handler, say) then covers fanned-out work too.
func TestForCarriesWorkerPanicToCaller(t *testing.T) {
	const n = 10
	type boom struct{ item int }
	var ran [n]atomic.Bool
	got := func() (v any) {
		defer func() { v = recover() }()
		For(2, n, func(i int) {
			if i == 3 {
				panic(boom{i})
			}
			ran[i].Store(true)
		})
		return nil
	}()
	if got != (boom{3}) {
		t.Fatalf("recovered %v, want the worker's original panic value %v", got, boom{3})
	}
	for i := range ran {
		if i != 3 && !ran[i].Load() {
			t.Errorf("item %d had not run when For re-panicked", i)
		}
	}
}

// TestForPanicValueIsLowestIndex pins which value wins when several
// items panic: the lowest-indexed one, whatever the scheduling.
func TestForPanicValueIsLowestIndex(t *testing.T) {
	got := func() (v any) {
		defer func() { v = recover() }()
		For(4, 64, func(i int) {
			if i%8 == 5 {
				panic(i)
			}
		})
		return nil
	}()
	if got != 5 {
		t.Fatalf("recovered %v, want 5", got)
	}
}
