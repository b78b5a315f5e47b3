package resil

import (
	"sync"
	"time"
)

// State is a circuit breaker's position in the closed → open → half-open
// cycle. The numeric values are stable (they export as a gauge).
type State int32

const (
	// Closed is the healthy state: every call is allowed and outcomes
	// feed the rolling failure window.
	Closed State = iota
	// Open is the tripped state: calls are refused up front until the
	// backoff expires, sparing the caller the doomed wait.
	Open
	// HalfOpen admits exactly one probe call; its outcome decides
	// between closing (success) and reopening with a longer backoff.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. The zero value is usable: every field
// falls back to the default documented on it.
type BreakerConfig struct {
	// Window is the rolling outcome window size; 0 means 16. The breaker
	// opens once at least half the window has filled and at least half
	// of those outcomes are failures (a single early failure must not
	// trip).
	Window int
	// ConsecutiveMisses opens the breaker after this many consecutive
	// failures regardless of the window rate; 0 means 4, negative
	// disables the consecutive trigger.
	ConsecutiveMisses int
	// OpenBase is the minimum open (cool-down) duration; 0 means 250ms.
	// Each open lasts OpenBase plus a full-jitter exponential extra that
	// doubles with every failed reopen probe, capped at OpenMax.
	OpenBase time.Duration
	// OpenMax caps the jittered extra; 0 means 15s.
	OpenMax time.Duration
	// Seed drives the backoff jitter (deterministic tests); 0 means 1.
	Seed int64
	// Clock is the time source; nil means time.Now. Test hook.
	Clock func() time.Time
}

func (c *BreakerConfig) withDefaults() BreakerConfig {
	out := *c
	if out.Window <= 0 {
		out.Window = 16
	}
	if out.ConsecutiveMisses == 0 {
		out.ConsecutiveMisses = 4
	}
	if out.OpenBase <= 0 {
		out.OpenBase = 250 * time.Millisecond
	}
	if out.OpenMax <= 0 {
		out.OpenMax = 15 * time.Second
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Clock == nil {
		out.Clock = time.Now
	}
	return out
}

// Breaker is a closed → open → half-open circuit breaker over a stream
// of call outcomes. The caller asks Allow before each call and reports
// Success or Failure after; a breaker that has tripped refuses calls
// until its jittered exponential backoff expires, then admits a single
// half-open probe. All methods are safe for concurrent use.
//
// Race asks and settles them — one per shard in the shard engine, one
// per replica in the cluster router: a target that keeps failing is
// refused up front (a partial answer, or a failover to a sibling)
// instead of re-paying its deadline per request, until a probe succeeds.
type Breaker struct {
	mu      sync.Mutex
	cfg     BreakerConfig
	backoff *Backoff

	state     State
	outcomes  []bool // ring buffer, true = failure
	head      int    // next write position
	count     int    // occupancy (≤ len(outcomes))
	fails     int    // failures currently in the window
	consec    int    // consecutive failures (closed state only)
	openUntil time.Time
	streak    int // opens since the last close; drives the backoff
	opens     uint64
	probing   bool // a half-open probe is in flight
}

// NewBreaker builds a breaker in the Closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	c := cfg.withDefaults()
	return &Breaker{
		cfg:      c,
		backoff:  NewBackoff(c.OpenBase, c.OpenMax, c.Seed),
		outcomes: make([]bool, c.Window),
	}
}

// Allow reports whether a call may proceed. Closed always allows; Open
// refuses until the cool-down expires, then transitions to HalfOpen and
// allows the single probe; HalfOpen refuses everything while the probe
// is in flight.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Clock().Before(b.openUntil) {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a successful call. A successful half-open probe
// closes the breaker and resets the window and the backoff streak;
// Success reports whether this call was that probe.
func (b *Breaker) Success() (reclosed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.state = Closed
		b.streak = 0
		b.probing = false
		b.resetWindow()
		return true
	case Closed:
		b.consec = 0
		b.push(false)
	case Open:
		// A call admitted before the trip finished late; it carries no
		// information about the post-trip world.
	}
	return false
}

// Failure reports a failed call (deadline miss, panic, injected error).
// In Closed it feeds the window and trips the breaker when either
// threshold is crossed; a failed half-open probe reopens with a longer
// backoff.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		b.trip()
	case Closed:
		b.consec++
		b.push(true)
		if b.tripNeeded() {
			b.trip()
		}
	case Open:
		// Late failure from before the trip; already accounted for.
	}
}

// Cancel reports that a call admitted by Allow finished without a
// meaningful outcome — e.g. the surrounding request was cancelled
// before the call completed, so its result says nothing about the
// guarded component. Its only effect is to release an in-flight
// half-open probe so the next Allow can admit a fresh one; without
// this, a cancelled probe would never report Success or Failure and
// the breaker would refuse calls forever. In Closed and Open states it
// is a no-op.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// Reset force-closes the breaker, clearing the rolling window, the
// reopen streak and any in-flight half-open probe — as if it had just
// been built. It is the out-of-band re-admission seam: a supervisor
// that has verified the guarded component by some channel the breaker
// cannot see (the cluster router's read-repair prober scanning a
// replica off the query path) closes the breaker immediately instead
// of waiting out the open cool-down and the half-open probe cycle.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.streak = 0
	b.probing = false
	b.openUntil = time.Time{}
	b.resetWindow()
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStats is the exported snapshot (JSON-shaped for /v1/stats).
type BreakerStats struct {
	// State is "closed", "open" or "half-open".
	State string `json:"state"`
	// Opens counts closed/half-open → open transitions since creation.
	Opens uint64 `json:"opens"`
	// WindowFailureRate is the failure fraction of the rolling window
	// (0 when empty).
	WindowFailureRate float64 `json:"window_failure_rate"`
}

// Stats returns a snapshot of the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BreakerStats{State: b.state.String(), Opens: b.opens}
	if b.count > 0 {
		s.WindowFailureRate = float64(b.fails) / float64(b.count)
	}
	return s
}

// push records one outcome in the ring buffer. Called with mu held.
func (b *Breaker) push(failure bool) {
	if b.count == len(b.outcomes) { // evicting the oldest outcome
		if b.outcomes[b.head] {
			b.fails--
		}
	} else {
		b.count++
	}
	b.outcomes[b.head] = failure
	if failure {
		b.fails++
	}
	b.head = (b.head + 1) % len(b.outcomes)
}

// tripNeeded reports whether the closed-state thresholds are crossed:
// ConsecutiveMisses in a row, or half the window filled with at least
// half of it failed. Called with mu held.
func (b *Breaker) tripNeeded() bool {
	if b.cfg.ConsecutiveMisses > 0 && b.consec >= b.cfg.ConsecutiveMisses {
		return true
	}
	return b.count >= max(1, len(b.outcomes)/2) && 2*b.fails >= b.count
}

// trip opens the breaker for OpenBase plus a full-jitter exponential
// extra that grows with the reopen streak. Called with mu held.
func (b *Breaker) trip() {
	b.state = Open
	b.opens++
	b.openUntil = b.cfg.Clock().Add(b.cfg.OpenBase + b.backoff.Delay(b.streak))
	b.streak++
	b.resetWindow()
}

// resetWindow clears the rolling window and consecutive-failure count.
// Called with mu held.
func (b *Breaker) resetWindow() {
	b.head, b.count, b.fails, b.consec = 0, 0, 0, 0
}
