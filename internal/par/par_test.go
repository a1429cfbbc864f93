package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0)=%d, want GOMAXPROCS=%d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(-3); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3)=%d, want GOMAXPROCS=%d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(5); w != 5 {
		t.Errorf("Workers(5)=%d", w)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100, 4097} {
			hits := make([]int32, n)
			For(p, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d hit %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForSequentialIsInline(t *testing.T) {
	// With one worker the calls must run on the caller's goroutine, in order.
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}
