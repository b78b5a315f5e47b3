package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// errPoolClosed is returned by Do after Close; the HTTP layer maps it to
// 503 so a draining server refuses new ranking work cleanly.
var errPoolClosed = errors.New("serve: worker pool closed")

// PanicError is returned by workerPool.Do when the submitted fn
// panicked: the panic is recovered on the worker (one poisoned query
// must not kill the worker or the process) and surfaced to the
// submitting handler, which maps it to a 500.
type PanicError struct {
	// Value is the recovered panic value; Stack is the worker's stack at
	// recovery.
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: ranking panicked: %v", e.Value)
}

// workerPool bounds ranking concurrency to a fixed number of goroutines
// so an arbitrary number of HTTP connections shares the ranking scan
// without spawning a ranking goroutine per request. Submission
// is unbuffered: Do blocks until a worker is free or the request context
// expires, which gives natural backpressure under overload.
type workerPool struct {
	tasks chan poolTask
	quit  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

type poolTask struct {
	fn   func()
	done chan struct{}
}

// newWorkerPool starts n workers (n must be >= 1).
func newWorkerPool(n int) *workerPool {
	p := &workerPool{
		tasks: make(chan poolTask),
		quit:  make(chan struct{}),
	}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case t := <-p.tasks:
					t.fn()
					close(t.done)
				case <-p.quit:
					return
				}
			}
		}()
	}
	return p
}

// Do runs fn on a pool worker and waits for it to finish. If no worker
// frees up before ctx is done, fn never runs and the context error is
// returned (the queueing timeout); cancellation after fn has started is
// fn's own responsibility (the ranking paths poll their context). A
// panicking fn is recovered on the worker — the worker survives to serve
// the next request — and Do returns the *PanicError.
func (p *workerPool) Do(ctx context.Context, fn func()) error {
	var pe *PanicError
	t := poolTask{done: make(chan struct{})}
	t.fn = func() {
		defer func() {
			if v := recover(); v != nil {
				pe = &PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		fn()
	}
	select {
	case p.tasks <- t:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.quit:
		return errPoolClosed
	}
	<-t.done
	if pe != nil {
		return pe
	}
	return nil
}

// Close drains the pool: workers finish their in-flight task and exit,
// and Close returns once all have. Subsequent Do calls fail with
// errPoolClosed.
func (p *workerPool) Close() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
}
