package resil

import (
	"context"
	"sync"
	"time"
)

// Drain tracks in-flight work so Close can refuse more and wait for the
// rest: a closed flag under an RWMutex in front of a WaitGroup, so no
// Add races Close's Wait from zero. The zero value is ready to use.
type Drain struct {
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// Enter registers one unit of work, or reports false once Close has
// begun. Every true must be paired with one Exit.
func (d *Drain) Enter() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.closed {
		d.wg.Add(1)
	}
	return !d.closed
}

// Exit ends a unit of work registered by Enter.
func (d *Drain) Exit() { d.wg.Done() }

// Closed reports whether Close has begun, so registered work that has
// not started yet can give up.
func (d *Drain) Closed() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.closed
}

// Scatter runs fn(0), …, fn(n-1) concurrently as counted work and
// returns once all have; false, calling nothing, once Close has begun.
func (d *Drain) Scatter(n int, fn func(i int)) bool {
	if !d.Enter() {
		return false
	}
	defer d.Exit()
	var wg sync.WaitGroup
	wg.Add(n)
	d.wg.Add(n)
	for i := range n {
		go func() {
			defer d.wg.Done()
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
	return true
}

// Close refuses new work, then waits for all of it. Idempotent.
func (d *Drain) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.wg.Wait()
}

// HedgeDelay is how long a race waits on its first attempt before
// hedging: floor raised to the target's observed p99, capped at ceiling
// (0 = none), past which a hedge races a lost cause. floor <= 0 disables
// hedging and returns 0.
func HedgeDelay(floor, ceiling, p99 time.Duration) time.Duration {
	if floor <= 0 {
		return 0
	}
	if d := max(floor, p99); ceiling <= 0 || d < ceiling {
		return d
	}
	return ceiling
}

// Outcome classifies one attempt of a Race: Won, a usable result; Lost,
// none and nobody's fault (a lost race, a dead query); Failed, a fault
// of the target itself that counts against its breaker.
type Outcome uint8

const (
	Won Outcome = iota
	Lost
	Failed
)

// Event is a step of a Race reported through Target.Note: a candidate
// Refused by its breaker, Hedged to, HedgeWon, started as a FailedOver
// after a lost attempt, Blamed for a failure, or Reclosed by a win that
// closed its half-open breaker.
type Event uint8

const (
	Refused Event = iota
	Hedged
	HedgeWon
	FailedOver
	Blamed
	Reclosed
)

// Target is what a Race asks of its caller, C naming a candidate (a
// shard index, a replica) and R one attempt's result: c's breaker (nil
// when unguarded), the hedge delay when the first attempt goes to c (<=
// 0: no hedging), one attempt against c under ctx, and a note of each
// step of the race.
type Target[C, R any] interface {
	Breaker(c C) *Breaker
	HedgeDelay(c C) time.Duration
	Attempt(ctx context.Context, c C) (R, Outcome)
	Note(c C, ev Event)
}

// Race gathers one result from an ordered candidate list and reports
// whether any attempt won. The first candidate its breaker admits starts
// at once; after the hedge delay a hedge goes to the next untried
// candidate, or to the same one again when the list has only one; after
// an attempt that did not win the next untried one starts, but only
// while qctx, the query's context, lives. The first win returns; losers
// are cancelled and abandoned (d counts them, so d.Close waits for
// them). Attempts run under actx or a child of it: actx and Attempt are
// the caller's deadline policy. A candidate's breaker is asked once, at
// its first start, and settled once per race: Success when it won,
// Failure when it failed while qctx lived, else Cancel, so a probe whose
// query died is released rather than wedged. With hedging off every
// attempt runs on the calling goroutine: no timer, channel or extra
// goroutine. Call Race only from work d counts.
func Race[C, R any](d *Drain, qctx, actx context.Context, cands []C, t Target[C, R]) (R, bool) {
	var zero R
	next := 0
	p := admit(cands, &next, t)
	if p < 0 {
		return zero, false
	}
	if delay := t.HedgeDelay(cands[p]); delay > 0 {
		return raceHedged(d, qctx, actx, cands, t, p, next, delay)
	}
	for {
		res, out := t.Attempt(actx, cands[p])
		settle(qctx, t, cands[p], out)
		if out == Won {
			return res, true
		}
		if qctx.Err() != nil {
			return zero, false
		}
		if p = admit(cands, &next, t); p < 0 {
			return zero, false
		}
		t.Note(cands[p], FailedOver)
	}
}

// admit returns the position of the next untried candidate its breaker
// admits (-1: none left), moving *next past it and every refused one.
func admit[C, R any](cands []C, next *int, t Target[C, R]) int {
	for ; *next < len(cands); *next++ {
		if b := t.Breaker(cands[*next]); b != nil && !b.Allow() {
			t.Note(cands[*next], Refused)
			continue
		}
		*next++
		return *next - 1
	}
	return -1
}

// settle reports a candidate's one outcome of a race to its breaker.
func settle[C, R any](qctx context.Context, t Target[C, R], c C, out Outcome) {
	b := t.Breaker(c)
	switch {
	case out == Won:
		if b != nil && b.Success() {
			t.Note(c, Reclosed)
		}
	case out == Failed && qctx.Err() == nil:
		if b != nil {
			b.Failure()
		}
		t.Note(c, Blamed)
	case b != nil:
		b.Cancel()
	}
}

// raceHedged is Race with hedging on from admitted position p. Attempts
// report on a channel with room for all (one per candidate, plus a lone
// candidate's hedge), so an abandoned one never blocks.
func raceHedged[C, R any](d *Drain, qctx, actx context.Context, cands []C, t Target[C, R], p, next int, delay time.Duration) (R, bool) {
	var zero R
	actx, cancel := context.WithCancel(actx)
	type attempt struct {
		pos   int
		hedge bool
		res   R
		out   Outcome
	}
	results := make(chan attempt, len(cands)+1)
	// Per candidate: attempts in flight and the worst outcome so far
	// (Lost < Failed), settled when the last one lands.
	type slot struct {
		running int
		out     Outcome
	}
	slots := make([]slot, len(cands))
	defer func() {
		cancel()
		for p := range slots {
			if slots[p].running > 0 { // abandoned
				settle(qctx, t, cands[p], Lost)
			}
		}
	}()
	inflight := 0
	launch := func(p int, hedge bool) {
		inflight++
		slots[p].running++
		c := cands[p]
		d.wg.Add(1) // inside counted work: cannot race Close from zero
		go func() {
			defer d.wg.Done()
			res, out := t.Attempt(actx, c)
			results <- attempt{pos: p, hedge: hedge, res: res, out: out}
		}()
	}

	launch(p, false)
	hedgeC := time.After(delay)
	for inflight > 0 {
		select {
		case a := <-results:
			inflight--
			s, c := &slots[a.pos], cands[a.pos]
			if s.running--; a.out == Won {
				s.running = 0 // a lone candidate's other attempt settles with this one
				settle(qctx, t, c, Won)
				if a.hedge {
					t.Note(c, HedgeWon)
				}
				return a.res, true
			}
			if s.out = max(s.out, a.out); s.running == 0 {
				settle(qctx, t, c, s.out)
			}
			if qctx.Err() != nil {
				return zero, false
			}
			if p := admit(cands, &next, t); p >= 0 {
				t.Note(cands[p], FailedOver)
				launch(p, false)
			}
		case <-hedgeC:
			hedgeC = nil
			if p = admit(cands, &next, t); p < 0 && len(cands) == 1 {
				p = 0 // no sibling: hedge the same target, on its primary's admission
			}
			if p >= 0 {
				t.Note(cands[p], Hedged)
				launch(p, true)
			}
		case <-qctx.Done():
			return zero, false
		}
	}
	return zero, false
}
