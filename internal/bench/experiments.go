package bench

import (
	"fmt"
	"time"

	"github.com/halk-kg/halk/internal/eval"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/match"
	"github.com/halk-kg/halk/internal/query"
)

// metricSel selects which metric a table reports.
type metricSel int

const (
	selMRR metricSel = iota
	selHit3
)

func (sel metricSel) of(m eval.Metrics) float64 {
	if sel == selMRR {
		return m.MRR
	}
	return m.Hits3
}

// epfoTable builds the Table I / Table II grid: datasets × methods over
// the 12 EPFO+difference structures plus the per-row average.
func (s *Suite) epfoTable(id, title string, sel metricSel) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: append(append([]string{"Dataset", "Method"}, query.EPFOStructures...), "Average"),
	}
	for _, ds := range s.Datasets {
		for _, method := range MethodsAll {
			row := []string{ds.Name, method}
			sum, n := 0.0, 0
			for _, structure := range query.EPFOStructures {
				m, ok := s.Eval(ds, method, structure)
				if !ok {
					row = append(row, dash())
					continue
				}
				v := sel.of(m)
				row = append(row, pct(v))
				sum += v
				n++
			}
			if n > 0 {
				row = append(row, pct(sum/float64(n)))
			} else {
				row = append(row, dash())
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Table1 reproduces Table I: MRR (%) for answering queries without
// negation on FB15k, FB237 and NELL.
func (s *Suite) Table1() *Table {
	return s.epfoTable("Table I", "MRR (%) for answering queries on FB15k, FB237, and NELL", selMRR)
}

// Table2 reproduces Table II: Hit@3 (%) on the same grid.
func (s *Suite) Table2() *Table {
	return s.epfoTable("Table II", "Hit@3 (%) for answering queries on FB15k, FB237, and NELL", selHit3)
}

func (s *Suite) negationTable(id, title string, sel metricSel) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: append(append([]string{"Dataset", "Method"}, query.NegationStructures...), "AVG"),
	}
	for _, ds := range s.Datasets {
		for _, method := range MethodsNegation {
			row := []string{ds.Name, method}
			sum, n := 0.0, 0
			for _, structure := range query.NegationStructures {
				m, ok := s.Eval(ds, method, structure)
				if !ok {
					row = append(row, dash())
					continue
				}
				v := sel.of(m)
				row = append(row, pct(v))
				sum += v
				n++
			}
			if n > 0 {
				row = append(row, pct(sum/float64(n)))
			} else {
				row = append(row, dash())
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Table3 reproduces Table III: MRR (%) for queries with negation.
func (s *Suite) Table3() *Table {
	return s.negationTable("Table III", "MRR (%) for answering queries with negation", selMRR)
}

// Table4 reproduces Table IV: Hit@3 (%) for queries with negation.
func (s *Suite) Table4() *Table {
	return s.negationTable("Table IV", "Hit@3 (%) for answering queries with negation", selHit3)
}

// Table5 reproduces Table V: the ablation study on NELL. Each operator
// block compares the crippled variant against full HaLk on that
// operator's signature structures, under Hit@3 and MRR.
func (s *Suite) Table5() *Table {
	ds := s.Dataset("NELL")
	t := &Table{
		ID:     "Table V",
		Title:  "Ablation study on NELL under MRR and Hit@3",
		Header: []string{"Block", "Model", "q1", "q2", "q3", "Hit@3 q1/q2/q3", "MRR q1/q2/q3"},
	}
	blocks := []struct {
		name       string
		variant    string
		structures []string
	}{
		{"Difference", "HaLk-V1", []string{"2d", "3d", "dp"}},
		{"Negation", "HaLk-V2", []string{"2in", "3in", "pin"}},
		{"Projection", "HaLk-V3", []string{"1p", "2p", "3p"}},
	}
	for _, blk := range blocks {
		for _, method := range []string{blk.variant, "HaLk"} {
			row := []string{blk.name, method, blk.structures[0], blk.structures[1], blk.structures[2]}
			var h3, mrr string
			for i, structure := range blk.structures {
				m, ok := s.Eval(ds, method, structure)
				if !ok {
					h3 += dash()
					mrr += dash()
				} else {
					h3 += pct(m.Hits3)
					mrr += pct(m.MRR)
				}
				if i < len(blk.structures)-1 {
					h3 += "/"
					mrr += "/"
				}
			}
			row = append(row, h3, mrr)
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// gfRun executes the matcher on a workload and reports mean accuracy
// (Jaccard against test-graph ground truth) and mean execution time.
// Options are built outside the timed region: the experiment measures
// the matcher's online time (the candidate sets are the pruner's
// product, produced by the embedding side).
func gfRun(m *match.Matcher, w []query.Query, opts func(q *query.Query) match.Options) (acc float64, avg time.Duration) {
	if len(w) == 0 {
		return 0, 0
	}
	var total time.Duration
	for i := range w {
		q := &w[i]
		o := opts(q)
		start := time.Now()
		res := m.Execute(q.Root, o)
		total += time.Since(start)
		acc += eval.SetAccuracy(res.Answers, q.Answers)
	}
	return acc / float64(len(w)), total / time.Duration(len(w))
}

// halkRun ranks a workload with HaLk and reports mean precision-at-truth
// accuracy and mean online time.
func halkRun(m *halk.Model, w []query.Query) (acc float64, avg time.Duration) {
	if len(w) == 0 {
		return 0, 0
	}
	var total time.Duration
	for i := range w {
		start := time.Now()
		d := m.Distances(w[i].Root)
		total += time.Since(start)
		acc += eval.PrecisionAtTruth(d, w[i].Answers)
	}
	return acc / float64(len(w)), total / time.Duration(len(w))
}

// Table6 reproduces Table VI: accuracy and execution time of HaLk vs
// GFinder across query sizes 1–5 on NELL.
func (s *Suite) Table6() *Table {
	ds := s.Dataset("NELL")
	hm, _ := s.Model(ds, "HaLk")
	hk := hm.(*halk.Model)
	gf := match.New(ds.Train)
	t := &Table{
		ID:     "Table VI",
		Title:  "Accuracy and execution time vs query size on NELL (H = HaLk, G = GFinder)",
		Header: []string{"QS", "EQS", "Acc H (%)", "Acc G (%)", "ET H (ms)", "ET G (ms)"},
	}
	for i, structure := range query.SizeLadder {
		w := s.Workload(ds, structure)
		haccV, htime := halkRun(hk, w)
		gaccV, gtime := gfRun(gf, w, func(*query.Query) match.Options { return match.Options{} })
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1), structure,
			pct(haccV), pct(gaccV),
			ms(float64(htime.Microseconds()) / 1000), ms(float64(gtime.Microseconds()) / 1000),
		})
	}
	return t
}

// pruneRestrict builds the induced candidate set of Sec. IV-D: HaLk's
// top-k candidates for every variable node, plus the anchors.
func pruneRestrict(hk *halk.Model, root *query.Node, k int) query.Set {
	restrict := make(query.Set)
	for _, cands := range hk.CandidatesPerNode(root, k) {
		for _, e := range cands {
			restrict[e] = struct{}{}
		}
	}
	for _, a := range root.Anchors() {
		restrict[a] = struct{}{}
	}
	return restrict
}

// Fig6a reproduces Fig. 6a: GFinder accuracy and query time on the six
// large structures before and after HaLk's top-k pruning.
func (s *Suite) Fig6a() *Table {
	ds := s.Dataset("NELL")
	hm, _ := s.Model(ds, "HaLk")
	hk := hm.(*halk.Model)
	gf := match.New(ds.Train)
	t := &Table{
		ID:    "Fig. 6a",
		Title: fmt.Sprintf("GFinder accuracy and query time before/after HaLk top-%d pruning (NELL)", s.cfg.PruneTopK),
		Header: []string{"Structure", "Acc before (%)", "Acc after (%)",
			"Time before (ms)", "Time after (ms)"},
	}
	for _, structure := range query.LargeStructures {
		w := s.Workload(ds, structure)
		accB, timeB := gfRun(gf, w, func(*query.Query) match.Options { return match.Options{} })
		accA, timeA := gfRun(gf, w, func(q *query.Query) match.Options {
			return match.Options{Restrict: pruneRestrict(hk, q.Root, s.cfg.PruneTopK)}
		})
		t.Rows = append(t.Rows, []string{
			structure, pct(accB), pct(accA),
			ms(float64(timeB.Microseconds()) / 1000), ms(float64(timeA.Microseconds()) / 1000),
		})
	}
	return t
}

// Fig6b reproduces Fig. 6b: offline training time of the four embedding
// methods on the three datasets.
func (s *Suite) Fig6b() *Table {
	t := &Table{
		ID:     "Fig. 6b",
		Title:  "Offline (training) time in seconds",
		Header: append([]string{"Method"}, datasetNames(s.Datasets)...),
	}
	for _, method := range MethodsAll {
		row := []string{method}
		for _, ds := range s.Datasets {
			_, offline := s.Model(ds, method)
			row = append(row, sec(offline.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig6c reproduces Fig. 6c: online query time of the four embedding
// methods and GFinder on the three datasets, averaged over the six large
// structures (each method answering the structures it supports).
func (s *Suite) Fig6c() *Table {
	t := &Table{
		ID:     "Fig. 6c",
		Title:  "Online query time in milliseconds (large structures)",
		Header: append([]string{"Method"}, datasetNames(s.Datasets)...),
	}
	for _, method := range append(append([]string{}, MethodsAll...), "GFinder") {
		row := []string{method}
		for _, ds := range s.Datasets {
			var total time.Duration
			n := 0
			if method == "GFinder" {
				gf := match.New(ds.Train)
				for _, structure := range query.LargeStructures {
					w := s.Workload(ds, structure)
					_, avg := gfRun(gf, w, func(*query.Query) match.Options { return match.Options{} })
					total += avg
					n++
				}
			} else {
				m, _ := s.Model(ds, method)
				for _, structure := range query.LargeStructures {
					if !m.Supports(structure) {
						continue
					}
					w := s.Workload(ds, structure)
					if len(w) == 0 {
						continue
					}
					mt := eval.Evaluate(m, w)
					total += mt.AvgQueryTime
					n++
				}
			}
			if n == 0 {
				row = append(row, dash())
				continue
			}
			avg := total / time.Duration(n)
			row = append(row, ms(float64(avg.Microseconds())/1000))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func datasetNames(ds []*kg.Dataset) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}
