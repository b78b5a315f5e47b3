package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// value is one measured metric. Spread is its run-internal
// repeatability, (max-min)/median over the run's windows or set-ups.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload      string           `json:"workload"`
	Seed          int64            `json:"seed"`
	Trace         bool             `json:"trace"`
	Correct       bool             `json:"correct"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	Metrics       map[string]value `json:"metrics"`
	InputsSHA256  string           `json:"inputs_sha256"`
	Samples       int              `json:"latency_samples"`
	OracleChecked int              `json:"oracle_checked"`
	FirstMismatch string           `json:"first_mismatch,omitempty"`
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	u := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, m := range endToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		u[m.Name] = m.Unit
	}
	return u
}()

// set records a metric; spreadOf are the window or set-up values it is
// the median of.
func (r *result) set(name string, v float64, spreadOf ...float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	r.Metrics[name] = value{Value: v, Unit: unit, Spread: spread(spreadOf)}
}

// snap is the process state read at a window boundary.
type snap struct {
	at         time.Time
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	cpu        time.Duration
}

func takeSnap() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return snap{
		at:         time.Now(),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// heapInuseMB forces a collection and reads what the live system holds.
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// window is the client-side view of one measuring interval.
type window struct {
	lat               []float64 // sorted, ms, successful requests
	attempted, failed int
	ops               float64 // successful queries
	seconds           float64
}

func cut(l *load, from, to snap, path, perRequest int) window {
	lat, attempted, failed := l.latenciesMs(from.at, to.at, path)
	return window{
		lat: lat, attempted: attempted, failed: failed,
		ops:     float64(len(lat) * perRequest),
		seconds: to.at.Sub(from.at).Seconds(),
	}
}

// phase drives the workload with marks at warm-up end and after each of
// n windows of length win.
func phase(s *stack, w workload, p profile, in *inputs, paths []string, keepEvery int, warm, win time.Duration, n int) (*load, []snap) {
	marks := make([]snap, n+1)
	l := drive(s, w, p, in, paths, keepEvery, func() {
		start := time.Now()
		time.Sleep(warm)
		marks[0] = takeSnap()
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(start.Add(warm + time.Duration(i)*win)))
			marks[i] = takeSnap()
		}
	})
	return l, marks
}

// run measures one workload: the timed end-to-end run, or with trace the
// traced windows and the layer replay. tmp holds the WAL and outDir the
// span files.
func run(w workload, p profile, seed int64, seconds float64, trace bool, tmp, outDir string) (*result, error) {
	res := &result{Workload: w.Name, Seed: seed, Trace: trace, Metrics: make(map[string]value)}
	total := time.Duration(seconds * float64(time.Second))
	warm := total / 4

	st, setup, err := startStack(w, p, tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	setups := []float64{setup.Seconds()}
	heap := heapInuseMB()

	in, err := buildInputs(w, p, st.ds, seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	res.InputsSHA256 = in.sha256
	path, perRequest := "/v1/query", 1
	if w.Batch > 0 {
		path, perRequest = "/v1/batch", w.Batch
	}
	orc := newOracle(st.m, in.pool)

	if trace {
		if err := runTraced(res, st, w, p, in, orc, path, perRequest, total, warm, outDir); err != nil {
			return nil, err
		}
	} else {
		l, marks := phase(st, w, p, in, []string{path}, oracleEvery, warm, total/windows, windows)
		var qps, p50, p99, alloc []float64
		for i := 0; i < windows; i++ {
			win := cut(l, marks[i], marks[i+1], 0, perRequest)
			res.Attempted += win.attempted
			res.Failed += win.failed
			res.Samples += len(win.lat)
			if win.ops == 0 {
				return nil, fmt.Errorf("window %d completed no request", i)
			}
			qps = append(qps, win.ops/win.seconds)
			p50 = append(p50, quantile(win.lat, 0.50))
			p99 = append(p99, quantile(win.lat, 0.99))
			alloc = append(alloc, float64(marks[i+1].totalAlloc-marks[i].totalAlloc)/1024/win.ops)
		}
		res.set("qps", median(qps), qps...)
		res.set("p50_ms", median(p50), p50...)
		res.set("p99_ms", median(p99), p99...)
		res.set("alloc_kb_per_op", median(alloc), alloc...)
		if l.writes != nil {
			res.Attempted += l.writes.sent
			res.Failed += l.writes.failed
		}
		if w.Ingest {
			// Reads raced publishes, so they are checked after the drain,
			// against the reference at the final version.
			st.ing.Close()
		} else {
			orc.checkKept(l, in, w.Batch > 0, 3*p.VerifyMin)
		}
		sent, failed := orc.topUp(st.url+path, in, w.Batch > 0, p.VerifyMin)
		res.Attempted += sent
		res.Failed += failed
	}
	res.Failed += orc.bad
	res.OracleChecked, res.FirstMismatch = orc.checked, orc.first
	st.close()

	if !trace {
		// setup_s is the median of at least SetupReps set-ups, and of up to
		// 9 as long as they fit in a second.
		for spent := setup; len(setups) < p.SetupReps || (len(setups) < 9 && spent < time.Second); {
			runtime.GC()
			s2, d, err := startStack(w, p, tmp)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			s2.close()
			setups = append(setups, d.Seconds())
			spent += d
		}
		// Its spread is that of the median, not of one set-up: single
		// set-ups of a few ms differ by a collector cycle, their quartile
		// distance shrinks with the square root of how many were taken.
		res.Metrics["setup_s"] = value{Value: median(setups), Unit: units["setup_s"],
			Spread: quartileSpread(setups) / math.Sqrt(float64(len(setups)))}
		res.set("heap_mb", heap)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && orc.checked >= p.VerifyMin
	return res, nil
}
