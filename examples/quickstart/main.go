// Quickstart: build a knowledge graph, train HaLk, answer a multi-hop
// logical query, and compare against the exact ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/halk-kg/halk/internal/eval"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

func main() {
	log.SetFlags(0)

	// 1. A knowledge graph. SynthFB237 is the FB15k-237 stand-in:
	//    train ⊆ valid ⊆ test, held as Train and Test graphs sharing one
	//    entity/relation space plus the validation edges between them.
	ds := kg.SynthFB237(1)
	fmt.Printf("dataset %s: %d entities, %d relations, %d train triples\n",
		ds.Name, ds.Train.NumEntities(), ds.Train.NumRelations(), ds.Train.NumTriples())

	// 2. A HaLk model over the training graph. The config controls the
	//    arc embedding dimensionality and the loss hyper-parameters.
	cfg := halk.DefaultConfig(1)
	cfg.Dim, cfg.Hidden = 32, 48
	cfg.Gamma = 24 * float64(cfg.Dim) / 800
	m := halk.New(ds.Train, cfg)
	fmt.Printf("model: %d parameters\n", m.Params().Count())

	// 3. Train with the structure-batched loop of Algorithm 1 (budget
	//    reduced here so the example finishes in under a minute).
	tc := model.DefaultTrainConfig(2)
	tc.Steps = 1200
	res, err := model.Train(m, ds.Train, tc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d steps in %v\n\n", res.Steps, res.Elapsed)

	// 4. Answer a two-hop query sampled from the *test* graph: its hard
	//    answers require edges the model never saw.
	rng := rand.New(rand.NewSource(3))
	qs := query.Workload("2p", 1, ds.Train, ds.Test, rng)
	q := qs[0]
	fmt.Printf("query: %s\n", q.Root)
	fmt.Printf("answers on test graph: %d (%d hard)\n", len(q.Answers), len(q.HardAnswers))

	top := m.TopK(q.Root, 10)
	fmt.Println("model's top 10:")
	for i, e := range top {
		mark := " "
		if q.Answers.Has(e) {
			mark = "*"
		}
		fmt.Printf("  %2d. %-8s %s\n", i+1, ds.Train.Entities.Name(int32(e)), mark)
	}

	// 5. Standard metrics over a small evaluation workload.
	evalQs := query.Workload("2p", 20, ds.Train, ds.Test, rng)
	mt := eval.Evaluate(m, evalQs)
	fmt.Printf("\n2p over %d hard answers: MRR %.3f, Hit@3 %.3f (%v per query)\n",
		mt.N, mt.MRR, mt.Hits3, mt.AvgQueryTime)
}
