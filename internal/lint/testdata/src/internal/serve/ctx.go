// Package serve is a ctxpass fixture: exported dispatch functions must
// accept and use a context.Context.
package serve

import (
	"context"
	"net/http"
	"sync"
)

// Batcher mimics the mc range-pass surface.
type Batcher struct{}

func (Batcher) ForEachRangeBatch(lo, hi int, fn func(k int)) {
	for k := lo; k < hi; k++ {
		fn(k)
	}
}

// Dispatch launches goroutines with no context: flagged.
func Dispatch(n int) { // want `launches goroutines but accepts no context\.Context`
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { wg.Done() }()
	}
	wg.Wait()
}

// EvaluateAll loops sample batches and ignores its context: flagged.
func EvaluateAll(ctx context.Context, b Batcher, n int) int { // want `never checks or propagates its context\.Context`
	total := 0
	b.ForEachRangeBatch(0, n, func(k int) { total += k })
	return total
}

// EvaluateCancellable checks its context per batch: clean.
func EvaluateCancellable(ctx context.Context, b Batcher, n int) (int, error) {
	total := 0
	b.ForEachRangeBatch(0, n, func(k int) { total += k })
	return total, ctx.Err()
}

// Drive mimics the yield driver, a batch-loop callee by name.
func Drive(n int) int { return n }

// EvaluateDriven drives the yield loop with no context: flagged.
func EvaluateDriven(n int) int { // want `loops over sample batches \(Drive\) but accepts no context\.Context`
	return Drive(n)
}

// ServeBatch derives its context from the request: clean.
func ServeBatch(w http.ResponseWriter, r *http.Request, b Batcher) {
	ctx := r.Context()
	b.ForEachRangeBatch(0, 8, func(k int) {})
	_ = ctx
	w.WriteHeader(http.StatusOK)
}

// worker is an unexported adapter type: its exported method stays out
// of scope even though it launches a goroutine.
type worker struct{ ctx context.Context }

func (w worker) Start() {
	go func() { <-w.ctx.Done() }()
}

// probe is unexported: out of scope.
func probe(n int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { wg.Done() }()
	wg.Wait()
	_ = n
}

var _ = probe
var _ = worker{}.Start
