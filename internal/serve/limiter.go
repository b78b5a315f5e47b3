package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/resil"
)

// errClosed is returned by Do once Close has begun; the HTTP layer maps
// it to 503 so a draining server refuses new ranking work cleanly.
var errClosed = errors.New("serve: server is closed")

// PanicError is returned by limiter.Do when the ranking panicked: the
// panic is recovered where the ranking runs (one poisoned query must not
// kill the process) and the handler maps it to a 500.
type PanicError struct {
	// Value is the recovered panic value; Stack is the stack at recovery.
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: ranking panicked: %v", e.Value)
}

// shedError is returned by limiter.Do when the admission gate refused
// the request: wait is the predicted slot wait, the Retry-After hint.
type shedError struct{ wait time.Duration }

func (e *shedError) Error() string {
	return fmt.Sprintf("serve: shed at admission (expected wait %v)", e.wait)
}

// ewmaAlpha is the smoothing factor of the admission gate's service-time
// estimate: each observation contributes 20%, so the estimate tracks
// load shifts within a handful of requests without chasing outliers.
const ewmaAlpha = 0.2

// coldStartServiceMs is the conservative service-time assumption used
// while the EWMA has no observations — after a restart, before the
// first ranking completes. Without it a cold-start stampede would be
// admitted without bound (predicted wait 0 × any queue depth); with it
// deep queues shed until real observations take over. The first real
// observation replaces it outright rather than blending in.
const coldStartServiceMs = 100

// limiter bounds ranking concurrency to cap(slots) requests, each
// ranking on its own handler goroutine once it holds a slot. Waiting for
// a slot is bounded by the request's deadline, which gives natural
// backpressure under overload; drain lets Close refuse new work and
// wait for what was admitted.
//
// With maxWait > 0 the limiter is also the deadline-aware admission
// gate: it predicts a new request's slot wait — admitted requests beyond
// the slot count, times the EWMA service time — and sheds the request up
// front (HTTP 429 + Retry-After) when that wait exceeds maxWait or the
// request's own remaining deadline. Shedding costs microseconds; the
// alternative is a request that queues, times out, and wastes a slot the
// moment one frees up.
type limiter struct {
	slots    chan struct{}
	drain    resil.Drain
	admitted atomic.Int64 // requests waiting for a slot or ranking

	maxWait time.Duration
	shed    *obs.Counter // nil when the gate is off
	mu      sync.Mutex
	ewmaMs  float64 // EWMA of observed ranking service time
}

// newLimiter makes n slots (n must be >= 1), behind the admission gate
// when maxWait > 0.
func newLimiter(n int, maxWait time.Duration, reg *obs.Registry) *limiter {
	l := &limiter{slots: make(chan struct{}, n), maxWait: maxWait}
	if maxWait > 0 {
		l.shed = reg.Counter("halk_admission_shed_total", "Requests shed at admission with 429 (expected queue wait exceeded the deadline).")
		reg.GaugeFunc("halk_admission_inflight", "Admitted requests currently queued or ranking.",
			func() float64 { return float64(l.admitted.Load()) })
	}
	return l
}

// Do runs fn in a slot and returns its error. fn does not run when the
// gate sheds the request (*shedError), when ctx is done before a slot
// frees up (the context error) or when Close has begun (errClosed), also
// while the request was waiting. The wait is ctx's trace's queue_wait
// stage. Cancellation after fn has started is fn's own responsibility
// (the ranking paths poll their context). A panicking fn is recovered,
// its slot released, and Do returns the *PanicError.
func (l *limiter) Do(ctx context.Context, fn func() error) (err error) {
	n := l.admitted.Add(1)
	defer l.admitted.Add(-1)
	if wait, ok := l.admit(ctx, n); !ok {
		return &shedError{wait}
	}
	if !l.drain.Enter() {
		return errClosed
	}
	defer l.drain.Exit()
	tr := obs.FromContext(ctx)
	tr.Begin(obs.StageQueueWait)
	select {
	case l.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-l.slots }()
	tr.End()
	if l.drain.Closed() {
		return errClosed
	}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		} else if l.maxWait > 0 {
			l.observe(time.Since(start))
		}
	}()
	return fn()
}

// admit is the admission gate's decision for a request that makes the
// admitted count n. A shed request gets ok=false and the predicted wait
// to surface as Retry-After.
func (l *limiter) admit(ctx context.Context, n int64) (retryAfter time.Duration, ok bool) {
	queued := n - int64(cap(l.slots))
	if l.maxWait <= 0 || queued <= 0 {
		return 0, true
	}
	l.mu.Lock()
	ewma := l.ewmaMs
	l.mu.Unlock()
	if ewma == 0 {
		ewma = coldStartServiceMs
	}
	wait := time.Duration(float64(queued) / float64(cap(l.slots)) * ewma * float64(time.Millisecond))
	budget := l.maxWait
	if deadline, has := ctx.Deadline(); has {
		if remaining := time.Until(deadline); remaining < budget {
			budget = remaining
		}
	}
	if wait > budget {
		l.shed.Inc()
		return wait, false
	}
	return 0, true
}

// observe folds one ranking's service time into the EWMA.
func (l *limiter) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	if l.ewmaMs == 0 {
		l.ewmaMs = ms
	} else {
		l.ewmaMs = ewmaAlpha*ms + (1-ewmaAlpha)*l.ewmaMs
	}
	l.mu.Unlock()
}

// snapshot returns the admission gate's /v1/stats view, nil when the
// gate is off.
func (l *limiter) snapshot() *admissionSnapshot {
	if l.maxWait <= 0 {
		return nil
	}
	l.mu.Lock()
	ewma := l.ewmaMs
	l.mu.Unlock()
	return &admissionSnapshot{
		MaxQueueWaitMs: float64(l.maxWait) / float64(time.Millisecond),
		Inflight:       l.admitted.Load(),
		Shed:           l.shed.Value(),
		ServiceEwmaMs:  ewma,
	}
}

// admissionSnapshot is the /v1/stats view of the admission gate.
type admissionSnapshot struct {
	MaxQueueWaitMs float64 `json:"max_queue_wait_ms"`
	Inflight       int64   `json:"inflight"`
	Shed           uint64  `json:"shed"`
	ServiceEwmaMs  float64 `json:"service_ewma_ms"`
}
