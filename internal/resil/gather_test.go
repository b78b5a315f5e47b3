package resil

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// script is one candidate's behaviour in a race: it is called with each
// attempt's context and the attempt's number against that candidate (0
// for the first).
type script func(ctx context.Context, n int) (string, Outcome)

func win(c string) script {
	return func(context.Context, int) (string, Outcome) { return c, Won }
}

func fail(context.Context, int) (string, Outcome) { return "", Failed }

// wedge blocks until the attempt is cancelled.
func wedge(ctx context.Context, _ int) (string, Outcome) {
	<-ctx.Done()
	return "", Lost
}

// wedgeThenWin wedges the first attempt; later ones (the hedge) win.
func wedgeThenWin(c string) script {
	return func(ctx context.Context, n int) (string, Outcome) {
		if n == 0 {
			return wedge(ctx, n)
		}
		return c, Won
	}
}

var eventNames = [...]string{Refused: "refused", Hedged: "hedged", HedgeWon: "hedge-won",
	FailedOver: "failed-over", Blamed: "blamed", Reclosed: "reclosed"}

// fakeTarget scripts a race's candidates and records what the race did.
type fakeTarget struct {
	delay    time.Duration
	scripts  map[string]script
	breakers map[string]*Breaker

	mu         sync.Mutex
	events     []string
	attempts   map[string]int
	ctxs       []context.Context
	goroutines []int // runtime.NumGoroutine() inside each attempt
}

func (f *fakeTarget) Breaker(c string) *Breaker       { return f.breakers[c] }
func (f *fakeTarget) HedgeDelay(string) time.Duration { return f.delay }

func (f *fakeTarget) Attempt(ctx context.Context, c string) (string, Outcome) {
	f.mu.Lock()
	if f.attempts == nil {
		f.attempts = map[string]int{}
	}
	n := f.attempts[c]
	f.attempts[c]++
	f.ctxs = append(f.ctxs, ctx)
	f.goroutines = append(f.goroutines, runtime.NumGoroutine())
	f.mu.Unlock()
	return f.scripts[c](ctx, n)
}

func (f *fakeTarget) Note(c string, ev Event) {
	f.mu.Lock()
	f.events = append(f.events, eventNames[ev]+":"+c)
	f.mu.Unlock()
}

// race runs one race inside work d counts, as the engine and router do.
func race(t *testing.T, d *Drain, qctx context.Context, cands []string, f *fakeTarget) (string, bool) {
	t.Helper()
	if !d.Enter() {
		t.Fatal("Enter refused on an open drain")
	}
	defer d.Exit()
	return Race[string, string](d, qctx, qctx, cands, f)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// trippedBreaker returns a breaker that is open and, after openFor,
// admits a half-open probe.
func trippedBreaker(misses int, openFor time.Duration) *Breaker {
	b := NewBreaker(BreakerConfig{ConsecutiveMisses: misses, OpenBase: openFor, OpenMax: time.Nanosecond})
	for i := 0; i < misses; i++ {
		b.Allow()
		b.Failure()
	}
	return b
}

// TestRacePolicy pins Race's policy: who starts, when a hedge goes out
// and where, how failover walks the order, and that a hedged race
// cancels every attempt's context once it returns.
func TestRacePolicy(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cands        []string
		delay        time.Duration
		scripts      map[string]script
		open         []string // candidates whose breaker refuses
		want         string   // "" = no winner
		wantEvents   []string
		wantAttempts map[string]int
	}{{
		name:         "first success wins",
		cands:        []string{"a", "b"},
		scripts:      map[string]script{"a": win("a"), "b": win("b")},
		want:         "a",
		wantAttempts: map[string]int{"a": 1},
	}, {
		name:         "failover walks the order",
		cands:        []string{"a", "b", "c"},
		scripts:      map[string]script{"a": fail, "b": fail, "c": win("c")},
		want:         "c",
		wantEvents:   []string{"blamed:a", "failed-over:b", "blamed:b", "failed-over:c"},
		wantAttempts: map[string]int{"a": 1, "b": 1, "c": 1},
	}, {
		name:         "every candidate fails",
		cands:        []string{"a", "b"},
		scripts:      map[string]script{"a": fail, "b": fail},
		wantEvents:   []string{"blamed:a", "failed-over:b", "blamed:b"},
		wantAttempts: map[string]int{"a": 1, "b": 1},
	}, {
		name:         "a refused admission moves to the next candidate",
		cands:        []string{"a", "b"},
		scripts:      map[string]script{"a": win("a"), "b": win("b")},
		open:         []string{"a"},
		want:         "b",
		wantEvents:   []string{"refused:a"},
		wantAttempts: map[string]int{"b": 1},
	}, {
		name:       "every breaker refuses",
		cands:      []string{"a", "b"},
		scripts:    map[string]script{"a": win("a"), "b": win("b")},
		open:       []string{"a", "b"},
		wantEvents: []string{"refused:a", "refused:b"},
	}, {
		name:         "the hedge goes to the next candidate",
		cands:        []string{"a", "b"},
		delay:        5 * time.Millisecond,
		scripts:      map[string]script{"a": wedge, "b": win("b")},
		want:         "b",
		wantEvents:   []string{"hedged:b", "hedge-won:b"},
		wantAttempts: map[string]int{"a": 1, "b": 1},
	}, {
		name:         "a lone candidate is hedged to itself",
		cands:        []string{"a"},
		delay:        5 * time.Millisecond,
		scripts:      map[string]script{"a": wedgeThenWin("a")},
		want:         "a",
		wantEvents:   []string{"hedged:a", "hedge-won:a"},
		wantAttempts: map[string]int{"a": 2},
	}, {
		name:         "a primary that wins before the delay is not hedged",
		cands:        []string{"a", "b"},
		delay:        time.Minute,
		scripts:      map[string]script{"a": win("a"), "b": win("b")},
		want:         "a",
		wantAttempts: map[string]int{"a": 1},
	}, {
		name:         "failover under hedging",
		cands:        []string{"a", "b"},
		delay:        time.Minute,
		scripts:      map[string]script{"a": fail, "b": win("b")},
		want:         "b",
		wantEvents:   []string{"blamed:a", "failed-over:b"},
		wantAttempts: map[string]int{"a": 1, "b": 1},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeTarget{delay: tc.delay, scripts: tc.scripts, breakers: map[string]*Breaker{}}
			for _, c := range tc.open {
				f.breakers[c] = trippedBreaker(1, time.Minute)
			}
			var d Drain
			got, ok := race(t, &d, context.Background(), tc.cands, f)
			if ok != (tc.want != "") || got != tc.want {
				t.Fatalf("race = (%q, %v), want %q", got, ok, tc.want)
			}
			d.Close() // abandoned losers finish: their contexts were cancelled
			if !equal(f.events, tc.wantEvents) {
				t.Errorf("events = %v, want %v", f.events, tc.wantEvents)
			}
			if len(f.attempts) != len(tc.wantAttempts) {
				t.Errorf("attempts = %v, want %v", f.attempts, tc.wantAttempts)
			}
			for c, n := range tc.wantAttempts {
				if f.attempts[c] != n {
					t.Errorf("attempts = %v, want %v", f.attempts, tc.wantAttempts)
				}
			}
			for i, ctx := range f.ctxs {
				if tc.delay > 0 && ctx.Err() == nil {
					t.Errorf("attempt %d's context still live after the race returned", i)
				}
			}
		})
	}
}

// TestRaceFailoverStopsWhenQueryDies: a failure that arrives after the
// query died neither blames its candidate nor starts the next one.
func TestRaceFailoverStopsWhenQueryDies(t *testing.T) {
	for _, delay := range []time.Duration{0, time.Minute} {
		qctx, cancel := context.WithCancel(context.Background())
		b := NewBreaker(BreakerConfig{ConsecutiveMisses: 1})
		f := &fakeTarget{
			delay: delay,
			scripts: map[string]script{
				"a": func(context.Context, int) (string, Outcome) { cancel(); return "", Failed },
				"b": win("b"),
			},
			breakers: map[string]*Breaker{"a": b},
		}
		var d Drain
		if got, ok := race(t, &d, qctx, []string{"a", "b"}, f); ok {
			t.Fatalf("delay %v: race = %q after the query died", delay, got)
		}
		d.Close()
		if f.attempts["b"] != 0 || len(f.events) != 0 {
			t.Fatalf("delay %v: attempts %v, events %v; want a alone and no blame", delay, f.attempts, f.events)
		}
		if b.State() != Closed {
			t.Fatalf("delay %v: breaker %v after a failure under a dead query, want closed", delay, b.State())
		}
	}
}

// TestRaceBreakerOncePerRace pins one admission and one settlement per
// candidate per race, even when the candidate is attempted twice.
func TestRaceBreakerOncePerRace(t *testing.T) {
	t.Run("half-open lone target: the hedge needs no second admission", func(t *testing.T) {
		b := trippedBreaker(1, time.Nanosecond)
		time.Sleep(time.Millisecond) // cool-down over: the next Allow is the probe
		f := &fakeTarget{delay: 5 * time.Millisecond, scripts: map[string]script{"a": wedgeThenWin("a")},
			breakers: map[string]*Breaker{"a": b}}
		var d Drain
		if got, ok := race(t, &d, context.Background(), []string{"a"}, f); !ok || got != "a" {
			t.Fatalf("race = (%q, %v), want the hedge's answer", got, ok)
		}
		d.Close()
		if want := []string{"hedged:a", "reclosed:a", "hedge-won:a"}; !equal(f.events, want) {
			t.Fatalf("events = %v, want %v", f.events, want)
		}
		if b.State() != Closed {
			t.Fatalf("breaker %v after the probe's hedge won, want closed", b.State())
		}
	})

	t.Run("two failed attempts are one failure", func(t *testing.T) {
		b := NewBreaker(BreakerConfig{ConsecutiveMisses: 2})
		slowFail := func(_ context.Context, n int) (string, Outcome) {
			if n == 0 {
				time.Sleep(20 * time.Millisecond) // fail after the hedge did
			}
			return "", Failed
		}
		for i, want := range []State{Closed, Open} {
			f := &fakeTarget{delay: 2 * time.Millisecond, scripts: map[string]script{"a": slowFail},
				breakers: map[string]*Breaker{"a": b}}
			var d Drain
			if _, ok := race(t, &d, context.Background(), []string{"a"}, f); ok {
				t.Fatal("a race of two failures won")
			}
			d.Close()
			if f.attempts["a"] != 2 {
				t.Fatalf("race %d: %d attempts, want primary and hedge", i, f.attempts["a"])
			}
			if evs := []string{"hedged:a", "blamed:a"}; !equal(f.events, evs) {
				t.Fatalf("race %d: events = %v, want %v", i, f.events, evs)
			}
			if b.State() != want {
				t.Fatalf("after race %d: breaker %v, want %v (one Failure per race)", i, b.State(), want)
			}
		}
	})

	t.Run("a probe whose query dies is released", func(t *testing.T) {
		for _, delay := range []time.Duration{0, time.Minute} {
			b := trippedBreaker(1, time.Nanosecond)
			time.Sleep(time.Millisecond)
			qctx, cancel := context.WithCancel(context.Background())
			f := &fakeTarget{delay: delay, scripts: map[string]script{"a": func(ctx context.Context, n int) (string, Outcome) {
				cancel()
				return wedge(ctx, n)
			}}, breakers: map[string]*Breaker{"a": b}}
			var d Drain
			if _, ok := race(t, &d, qctx, []string{"a"}, f); ok {
				t.Fatal("cancelled race won")
			}
			d.Close()
			if b.State() != HalfOpen || !b.Allow() {
				t.Fatalf("delay %v: breaker %v refuses a new probe; the cancelled one was not released", delay, b.State())
			}
		}
	})
}

// TestRaceUnhedgedRunsInline: with hedging off every attempt runs on the
// calling goroutine — the goroutine count inside each attempt is the
// count outside the race.
func TestRaceUnhedgedRunsInline(t *testing.T) {
	f := &fakeTarget{scripts: map[string]script{"a": fail, "b": win("b")}}
	var d Drain
	before := runtime.NumGoroutine()
	if got, ok := race(t, &d, context.Background(), []string{"a", "b"}, f); !ok || got != "b" {
		t.Fatalf("race = (%q, %v), want b", got, ok)
	}
	for i, n := range f.goroutines {
		if n != before {
			t.Fatalf("attempt %d saw %d goroutines, %d outside the race", i, n, before)
		}
	}
}

// TestDrainCloseWaitsForAbandonedAttempts: a race returns without its
// loser, and Close waits for the loser before returning, reporting
// Closed while it waits; afterwards no goroutine is left and new work is
// refused.
func TestDrainCloseWaitsForAbandonedAttempts(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	f := &fakeTarget{delay: time.Millisecond, scripts: map[string]script{
		"a": func(context.Context, int) (string, Outcome) { <-release; return "", Lost }, // ignores cancellation
		"b": win("b"),
	}}
	var d Drain
	if got, ok := race(t, &d, context.Background(), []string{"a", "b"}, f); !ok || got != "b" {
		t.Fatalf("race = (%q, %v), want b", got, ok)
	}
	if d.Closed() {
		t.Fatal("Closed before Close")
	}
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an abandoned attempt still ran")
	case <-time.After(20 * time.Millisecond):
	}
	for wait := time.Now().Add(2 * time.Second); !d.Closed(); time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatal("Closed false while Close waits")
		}
	}
	close(release)
	<-closed
	if d.Enter() {
		t.Fatal("Enter admitted work after Close")
	}
	if d.Scatter(2, func(int) { t.Error("Scatter ran after Close") }) {
		t.Fatal("Scatter reported true after Close")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, before the race: %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainScatterRunsEveryIndex(t *testing.T) {
	var d Drain
	hits := make([]int, 5)
	if !d.Scatter(len(hits), func(i int) { hits[i]++ }) {
		t.Fatal("Scatter refused on an open drain")
	}
	for i, n := range hits {
		if n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
	d.Close()
	d.Close() // idempotent
}

func TestHedgeDelay(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		floor, ceiling, p99, want time.Duration
	}{
		{0, 0, 5 * ms, 0},                // hedging off
		{2 * ms, 0, 0, 2 * ms},           // no observation yet: the floor
		{2 * ms, 0, 5 * ms, 5 * ms},      // raised to the p99
		{2 * ms, 4 * ms, 5 * ms, 4 * ms}, // capped at the deadline
		{6 * ms, 4 * ms, 0, 4 * ms},
	} {
		if got := HedgeDelay(tc.floor, tc.ceiling, tc.p99); got != tc.want {
			t.Errorf("HedgeDelay(%v, %v, %v) = %v, want %v", tc.floor, tc.ceiling, tc.p99, got, tc.want)
		}
	}
}
