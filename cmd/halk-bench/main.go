// Command halk-bench regenerates every table and figure of the paper's
// evaluation (Sec. IV) and prints them in paper order.
//
// Usage:
//
//	halk-bench -all                 # full budgets (tens of minutes on CPU)
//	halk-bench -all -quick          # smoke budgets (a few minutes)
//	halk-bench -only "Table I,Fig. 6b"
//	halk-bench -all -o results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"github.com/halk-kg/halk/internal/bench"
	"github.com/halk-kg/halk/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("halk-bench: ")

	var (
		all     = flag.Bool("all", false, "run every table and figure")
		only    = flag.String("only", "", "comma-separated experiment ids (e.g. \"Table I,Fig. 6a\")")
		quick   = flag.Bool("quick", false, "smoke-scale budgets")
		seed    = flag.Int64("seed", 1, "suite seed")
		out     = flag.String("o", "", "also write results to this file")
		pprofAt = flag.String("pprof-addr", "", "debug listen address exposing /debug/pprof/ for profiling suite runs (empty disables)")
	)
	flag.Parse()

	if !*all && *only == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *pprofAt != "" {
		reg := obs.NewRegistry()
		obs.RegisterProcessMetrics(reg)
		dbg, bound, err := obs.ServeDebug(*pprofAt, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug server on %s (/debug/pprof/, /metrics)", bound)
	}

	cfg := bench.FullConfig(*seed)
	if *quick {
		cfg = bench.QuickConfig(*seed)
	}
	cfg.Out = os.Stderr
	s := bench.NewSuite(cfg)

	var sinks []io.Writer = []io.Writer{os.Stdout}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sinks = append(sinks, f)
	}
	w := io.MultiWriter(sinks...)

	runners := []struct {
		id  string
		run func() *bench.Table
	}{
		{"Table I", s.Table1}, {"Table II", s.Table2},
		{"Table III", s.Table3}, {"Table IV", s.Table4},
		{"Table V", s.Table5}, {"Fig. 6a", s.Fig6a},
		{"Fig. 6b", s.Fig6b}, {"Fig. 6c", s.Fig6c},
		{"Table VI", s.Table6},
		// Supplementary experiments beyond the paper's tables.
		{"Observation", s.Observation}, {"Cardinality", s.Cardinality},
		{"Table Ext", func() *bench.Table { return s.TableExtended("FB237") }},
	}

	// Resolve -only before anything trains: an id that matches no runner
	// is a typo, and running the rest would hide it behind exit status 0.
	selected := make([]bool, len(runners))
	valid := make([]string, len(runners))
	for i, r := range runners {
		selected[i] = *all
		valid[i] = r.id
	}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		found := false
		for i, r := range runners {
			if strings.EqualFold(id, r.id) {
				selected[i], found = true, true
			}
		}
		if !found {
			log.Fatalf("-only: unknown experiment id %q; valid ids: %s", id, strings.Join(valid, ", "))
		}
	}
	ran := 0
	for i, r := range runners {
		if selected[i] {
			fmt.Fprintln(w, r.run().String())
			ran++
		}
	}
	if ran == 0 {
		log.Fatalf("-only %q names no experiment; valid ids: %s", *only, strings.Join(valid, ", "))
	}
}
