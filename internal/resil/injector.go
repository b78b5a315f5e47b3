package resil

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the default error a KindError fault returns.
var ErrInjected = errors.New("resil: injected fault")

// Kind enumerates the fault behaviours an Injector can deliver.
type Kind int

const (
	// KindPanic panics at the hook site (exercising recover paths).
	KindPanic Kind = iota + 1
	// KindDelay sleeps Fault.Delay at the hook site, then proceeds.
	KindDelay
	// KindError returns Fault.Err (or ErrInjected) from the hook site.
	KindError
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindError:
		return "error"
	default:
		return "unknown"
	}
}

// AnyShard matches every shard index in Injector.Set.
const AnyShard = -1

// Fault is one injected behaviour.
type Fault struct {
	// Kind selects panic, delay or error.
	Kind Kind
	// Delay is the KindDelay sleep duration.
	Delay time.Duration
	// Err is the KindError return value; nil means ErrInjected.
	Err error
	// Count bounds how many times the fault fires; 0 or negative means
	// unlimited.
	Count int
}

type rule struct {
	shard     int
	fault     Fault
	remaining int // -1 = unlimited
}

// Injector delivers deterministic faults at named stages of the serving
// pipeline — the chaos-test harness. Producers call Fire at seam points
// (the shard engine's per-scan hook, the serve layer's cache and rank
// stages); tests arm faults with Set. A nil *Injector is inert, so
// production wiring passes nil and pays one pointer test per seam.
type Injector struct {
	mu    sync.Mutex
	rules map[string][]*rule
	fired map[string]uint64
}

// NewInjector returns an empty injector.
func NewInjector() *Injector {
	return &Injector{rules: make(map[string][]*rule), fired: make(map[string]uint64)}
}

// Set arms fault f at the named stage for the given shard index
// (AnyShard matches all). Multiple rules per stage match in insertion
// order; the first live match fires.
func (in *Injector) Set(stage string, shard int, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	remaining := f.Count
	if remaining <= 0 {
		remaining = -1
	}
	in.rules[stage] = append(in.rules[stage], &rule{shard: shard, fault: f, remaining: remaining})
}

// Clear disarms every rule (fired counters are preserved).
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = make(map[string][]*rule)
}

// Fired reports how many faults have fired at the stage.
func (in *Injector) Fired(stage string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[stage]
}

// Fire triggers the first live fault armed for (stage, shard), if any:
// KindDelay sleeps and returns nil, KindError returns the fault's
// error, KindPanic panics. Unmatched stages — and nil receivers — are
// no-ops returning nil, so seam points call Fire unconditionally.
func (in *Injector) Fire(stage string, shard int) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	var f *Fault
	for _, r := range in.rules[stage] {
		if r.shard != AnyShard && r.shard != shard {
			continue
		}
		if r.remaining == 0 {
			continue
		}
		if r.remaining > 0 {
			r.remaining--
		}
		in.fired[stage]++
		cp := r.fault
		f = &cp
		break
	}
	in.mu.Unlock()
	if f == nil {
		return nil
	}
	switch f.Kind {
	case KindDelay:
		time.Sleep(f.Delay)
		return nil
	case KindError:
		if f.Err != nil {
			return f.Err
		}
		return ErrInjected
	case KindPanic:
		panic(fmt.Sprintf("resil: injected panic at %s (shard %d)", stage, shard))
	default:
		return nil
	}
}

// ScanErrHook adapts the injector to an error-returning per-shard scan
// hook (shard.Options.ScanHook): delay faults sleep, error faults fail
// the shard's scan, and panic faults propagate into the scan goroutine,
// where the engine's recover isolates them.
func (in *Injector) ScanErrHook(stage string) func(shard int) error {
	return func(shard int) error { return in.Fire(stage, shard) }
}
