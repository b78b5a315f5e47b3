// Package-level benchmarks: one per table and figure of the paper's
// evaluation (Sec. IV). Each benchmark regenerates its experiment
// through the shared bench.Suite at smoke budgets (QuickConfig), so
// `go test -bench=.` exercises every experiment pipeline end to end in
// minutes; the paper-scale numbers come from `go run ./cmd/halk-bench
// -all`, which uses the same code with full budgets.
//
// Model training is done once in the shared suite and excluded from the
// timed region: the benchmarks measure experiment regeneration (query
// embedding, ranking, matching), which is the online cost the paper
// reports.
package halk_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"github.com/halk-kg/halk/internal/bench"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
)

func sharedSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = bench.NewSuite(bench.QuickConfig(1))
		// Pre-train every model/dataset pair used by the experiments so
		// no benchmark pays training time inside its timed loop.
		for _, ds := range suite.Datasets {
			for _, method := range bench.MethodsAll {
				suite.Model(ds, method)
			}
		}
		for _, v := range []string{"HaLk-V1", "HaLk-V2", "HaLk-V3"} {
			suite.Model(suite.Dataset("NELL"), v)
		}
	})
	return suite
}

// reportHaLkAverage extracts the HaLk row average from a dataset×method
// table and reports it as a benchmark metric, so regressions in model
// quality are visible in benchmark output.
func reportHaLkAverage(b *testing.B, t *bench.Table, metric string) {
	b.Helper()
	for _, row := range t.Rows {
		if len(row) >= 3 && row[1] == "HaLk" {
			if v, err := strconv.ParseFloat(row[len(row)-1], 64); err == nil {
				b.ReportMetric(v, metric)
			}
			return
		}
	}
}

func benchTable(b *testing.B, run func(s *bench.Suite) *bench.Table, metric string) {
	s := sharedSuite(b)
	var last *bench.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = run(s)
	}
	b.StopTimer()
	if metric != "" {
		reportHaLkAverage(b, last, metric)
	}
	if testing.Verbose() {
		fmt.Println(last.String())
	}
}

func BenchmarkTable1MRR(b *testing.B) {
	benchTable(b, (*bench.Suite).Table1, "HaLk-avg-MRR-%")
}

func BenchmarkTable2Hit3(b *testing.B) {
	benchTable(b, (*bench.Suite).Table2, "HaLk-avg-Hit3-%")
}

func BenchmarkTable3NegMRR(b *testing.B) {
	benchTable(b, (*bench.Suite).Table3, "HaLk-avg-negMRR-%")
}

func BenchmarkTable4NegHit3(b *testing.B) {
	benchTable(b, (*bench.Suite).Table4, "HaLk-avg-negHit3-%")
}

func BenchmarkTable5Ablation(b *testing.B) {
	benchTable(b, (*bench.Suite).Table5, "")
}

func BenchmarkTable6Scalability(b *testing.B) {
	benchTable(b, (*bench.Suite).Table6, "")
}

func BenchmarkFig6aPruning(b *testing.B) {
	benchTable(b, (*bench.Suite).Fig6a, "")
}

func BenchmarkFig6bOffline(b *testing.B) {
	benchTable(b, (*bench.Suite).Fig6b, "")
}

func BenchmarkFig6cOnline(b *testing.B) {
	benchTable(b, (*bench.Suite).Fig6c, "")
}

// Supplementary experiments beyond the paper's tables (see EXPERIMENTS.md).

func BenchmarkObservationDiffVsNeg(b *testing.B) {
	benchTable(b, (*bench.Suite).Observation, "")
}

func BenchmarkCardinalitySemantics(b *testing.B) {
	benchTable(b, (*bench.Suite).Cardinality, "")
}
