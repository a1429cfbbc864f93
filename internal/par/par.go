// Package par provides the tiny deterministic-parallelism substrate shared
// by the turnstile sampler stages (internal/transform) and the FGP trial
// pipeline (internal/fgp): bounded worker fan-out
// whose work assignment never influences results. Callers keep determinism
// by giving each unit of work its own state (its own RNG, its own sampler)
// and by merging results in index order, so any worker count — 1, 4,
// GOMAXPROCS — computes bit-identical outputs.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a parallelism request: p <= 0 selects GOMAXPROCS, any
// positive p is used as given (1 forces the sequential path).
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// For runs fn(i) for every i in [0, n), fanning the index range out to at
// most Workers(p) goroutines in contiguous chunks, and returns once every
// call has finished. fn must be safe to call concurrently for distinct i;
// with one worker (or n <= 1) everything runs inline on the caller's
// goroutine.
func For(p, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(p)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
