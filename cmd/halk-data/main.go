// Command halk-data generates, inspects and exports the benchmark
// stand-in datasets.
//
// Usage:
//
//	halk-data -dataset NELL -stats
//	halk-data -dataset FB237 -export ./data          # train/valid/test TSVs
//	halk-data -import ./data -stats                  # read TSVs back
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/halk-kg/halk/internal/kg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("halk-data: ")

	var (
		dataset = flag.String("dataset", "FB237", "dataset stand-in: FB15k, FB237 or NELL")
		seed    = flag.Int64("seed", 1, "generation seed")
		stats   = flag.Bool("stats", false, "print structural statistics")
		export  = flag.String("export", "", "write train/valid/test TSVs into this directory")
		imp     = flag.String("import", "", "read train/valid/test TSVs from this directory instead of generating")
	)
	flag.Parse()

	var ds *kg.Dataset
	var err error
	if *imp != "" {
		ds, err = importDataset(*imp)
	} else {
		ds, err = kg.SynthByName(*dataset, *seed)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d/%d/%d train/valid/test triples\n",
		ds.Name, ds.Train.NumTriples(), ds.Train.NumTriples()+len(ds.ValidEdges), ds.Test.NumTriples())

	if *stats {
		for _, part := range []struct {
			name string
			g    *kg.Graph
		}{{"train", ds.Train}, {"test", ds.Test}} {
			fmt.Printf("\n[%s graph]\n%s\n", part.name, kg.ComputeStats(part.g))
		}
	}

	if *export != "" {
		if err := os.MkdirAll(*export, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, part := range []struct {
			name  string
			g     *kg.Graph
			extra []kg.Triple
		}{{"train", ds.Train, nil}, {"valid", ds.Train, ds.ValidEdges}, {"test", ds.Test, nil}} {
			path := filepath.Join(*export, part.name+".tsv")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := kg.WriteTSV(f, part.g, part.extra...); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s (%d triples)\n", path, part.g.NumTriples()+len(part.extra))
		}
	}
}

// importDataset reads train.tsv / valid.tsv / test.tsv from dir into one
// dataset sharing dictionaries. valid.tsv holds the validation graph,
// train plus the validation edges; the facts it adds to train become
// ValidEdges.
func importDataset(dir string) (*kg.Dataset, error) {
	ents, rels := kg.NewDict(), kg.NewDict()
	graphs := make(map[string]*kg.Graph, 3)
	for _, name := range []string{"train", "valid", "test"} {
		f, err := os.Open(filepath.Join(dir, name+".tsv"))
		if err != nil {
			return nil, err
		}
		g, err := kg.ReadTSV(f, ents, rels)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		graphs[name] = g
	}
	ds := &kg.Dataset{Name: filepath.Base(dir), Train: graphs["train"], Test: graphs["test"]}
	valid := graphs["valid"]
	if !valid.ContainsAll(ds.Train) {
		return nil, fmt.Errorf("kg: dataset %s: train ⊄ valid", ds.Name)
	}
	for _, t := range valid.Triples() {
		if !ds.Train.HasTriple(t.H, t.R, t.T) {
			ds.ValidEdges = append(ds.ValidEdges, t)
		}
	}
	return ds, nil
}
