package resil

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manual time source so breaker transitions are tested
// without sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testBreaker(clk *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Window:            8,
		ConsecutiveMisses: 3,
		OpenBase:          100 * time.Millisecond,
		OpenMax:           time.Second,
		Seed:              42,
		Clock:             clk.Now,
	})
}

func TestBreakerOpensOnConsecutiveMisses(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Failure()
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 misses = %v, want closed", b.State())
	}
	b.Failure() // third consecutive miss trips
	if b.State() != Open {
		t.Fatalf("state after 3 consecutive misses = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before the cool-down")
	}
	if s := b.Stats(); s.Opens != 1 || s.State != "open" {
		t.Fatalf("stats = %+v, want opens=1 state=open", s)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	// Alternate misses and successes: the consecutive trigger must never
	// fire, and the 50% rate needs half the window (4) first.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Open {
		// 4 failures / 5 outcomes = 80% ≥ 50% with the window half full → open.
		t.Fatalf("state = %v, want open via failure rate", b.State())
	}
}

func TestBreakerOpensOnFailureRate(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		Window:            8,
		ConsecutiveMisses: -1, // disable the consecutive trigger
		OpenBase:          100 * time.Millisecond, OpenMax: time.Second,
		Seed: 42, Clock: clk.Now,
	})
	// 3 failures in a row do not trip (consecutive disabled, window under half full).
	b.Failure()
	b.Failure()
	b.Failure()
	if b.State() != Open && b.State() != Closed {
		t.Fatalf("unexpected state %v", b.State())
	}
	if b.State() == Open {
		t.Fatal("tripped below half the window")
	}
	b.Success() // 3/4 = 75% ≥ 50% with 4 samples → trips on next outcome check
	b.Failure() // 4/5 = 80%
	if b.State() != Open {
		t.Fatalf("state = %v, want open at 80%% window failure rate", b.State())
	}
}

// TestBreakerOpensAtHalfFailed pins the rate rule's boundary: with half
// the window filled, exactly half of it failed is enough to open.
func TestBreakerOpensAtHalfFailed(t *testing.T) {
	b := NewBreaker(BreakerConfig{Window: 8, ConsecutiveMisses: -1, Clock: newFakeClock().Now})
	b.Success()
	b.Failure()
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v with the window under half full, want closed", b.State())
	}
	b.Failure() // 2 of 4
	if b.State() != Open {
		t.Fatalf("state = %v at 2 failures of 4 outcomes, want open", b.State())
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	if b.State() != Open {
		t.Fatal("did not open")
	}
	// Before the cool-down: refused. Open duration is in
	// [OpenBase, OpenBase+Cap(0)) = [100ms, 200ms).
	clk.Advance(50 * time.Millisecond)
	if b.Allow() {
		t.Fatal("allowed during cool-down")
	}
	clk.Advance(200 * time.Millisecond) // safely past the jittered bound
	if !b.Allow() {
		t.Fatal("reopen probe refused after the cool-down")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused after recovery")
	}
}

func TestBreakerProbeFailureReopensWithLongerBackoff(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(300 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Failure() // probe fails → reopen
	if b.State() != Open {
		t.Fatalf("state after probe failure = %v, want open", b.State())
	}
	if s := b.Stats(); s.Opens != 2 {
		t.Fatalf("opens = %d, want 2", s.Opens)
	}
	// The second open lasts at least OpenBase again.
	clk.Advance(50 * time.Millisecond)
	if b.Allow() {
		t.Fatal("allowed during second cool-down")
	}
	// Cap(1) = 200ms ⇒ open < OpenBase+200ms = 300ms; advance past it.
	clk.Advance(300 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe refused after extended cool-down")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("did not close after successful second probe")
	}
	// The streak reset: a fresh trip starts from the base envelope again.
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(300 * time.Millisecond) // ≥ OpenBase + Cap(0)
	if !b.Allow() {
		t.Fatal("probe after re-trip refused; backoff streak did not reset on close")
	}
}

func TestBreakerLateOutcomesInOpenIgnored(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	opens := b.Stats().Opens
	b.Failure() // a straggler reports after the trip
	b.Success()
	if got := b.Stats().Opens; got != opens {
		t.Fatalf("late outcomes changed opens: %d → %d", opens, got)
	}
	if b.State() != Open {
		t.Fatalf("late success flipped state to %v", b.State())
	}
}

func TestBreakerDefaultsUsable(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	if !b.Allow() {
		t.Fatal("default breaker refused first call")
	}
	for i := 0; i < 4; i++ { // default ConsecutiveMisses = 4
		b.Failure()
	}
	if b.State() != Open {
		t.Fatalf("default breaker state after 4 misses = %v, want open", b.State())
	}
}

func TestBreakerCancelReleasesHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Failure()
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cool-down expired but the probe was refused")
	}
	if b.Allow() {
		t.Fatal("second call admitted while the probe is in flight")
	}

	// The probe's query was cancelled before it produced an outcome.
	// Cancel must release it — otherwise no call is ever admitted again.
	b.Cancel()
	if b.State() != HalfOpen {
		t.Fatalf("state after cancelled probe = %v, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("breaker wedged: no fresh probe admitted after Cancel")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
}

func TestBreakerCancelNoOpInClosedAndOpen(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	b.Cancel() // closed: no effect
	if b.State() != Closed || !b.Allow() {
		t.Fatalf("Cancel disturbed a closed breaker: %v", b.State())
	}
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	b.Cancel() // open: no effect
	if b.State() != Open || b.Allow() {
		t.Fatalf("Cancel disturbed an open breaker: %v", b.State())
	}
}

func TestBreakerResetForceCloses(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)

	// Trip twice without closing so the reopen streak grows: the second
	// open's jitter envelope is wider than the first's.
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after cool-down")
	}
	b.Failure() // probe fails → second open, streak = 2
	if s := b.Stats(); s.Opens != 2 || s.State != "open" {
		t.Fatalf("stats before reset = %+v, want opens=2 open", s)
	}

	// Out-of-band re-admission: Reset closes immediately, no cool-down.
	b.Reset()
	if b.State() != Closed {
		t.Fatalf("state after Reset = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("reset breaker refused a call")
	}
	s := b.Stats()
	if s.WindowFailureRate != 0 {
		t.Fatalf("window failure rate after Reset = %v, want 0 (window cleared)", s.WindowFailureRate)
	}
	if s.Opens != 2 {
		t.Fatalf("Reset rewrote the opens counter: %d, want 2", s.Opens)
	}

	// The consecutive-miss count was cleared too: it takes a full
	// ConsecutiveMisses run of fresh failures to trip again.
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("stale pre-Reset failures counted toward a new trip")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after 3 fresh misses = %v, want open", b.State())
	}
	// And the backoff streak restarted: this open sits in the base
	// envelope [OpenBase, OpenBase+Cap(0)) = [100ms, 200ms), not the
	// extended one a streak of 3 would produce.
	clk.Advance(250 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused at 250ms; Reset did not clear the backoff streak")
	}
}

func TestBreakerResetReleasesHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	// Probe in flight; Reset lands (the supervisor verified the
	// component out of band). The stale probe's late outcome must not
	// re-trip the now-closed breaker on its own.
	b.Reset()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
	b.Failure() // the stale probe reports back
	if b.State() != Closed {
		t.Fatalf("single late failure re-tripped a reset breaker: %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("reset breaker refused a call after the stale probe's outcome")
	}
}
