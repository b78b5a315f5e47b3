// Command halk-query answers logical queries with a trained HaLk
// checkpoint, either from a SPARQL string (executed through the Adaptor
// of Sec. IV-F) or by sampling a named query structure.
//
// Usage:
//
//	halk-query -ckpt nell.ckpt -sparql 'SELECT ?x WHERE { :e0007 :r003 ?y . ?y :r010 ?x }'
//	halk-query -ckpt nell.ckpt -structure pi -k 10
//
// Each invocation reloads the checkpoint. For repeated queries against
// one checkpoint, run halk-serve instead: it loads the model once and
// answers the same three query forms over HTTP with caching and
// per-request deadlines. With -server the checkpoint is skipped
// entirely and the query is posted to a running halk-serve (or
// halk-shard) process instead:
//
//	halk-query -server localhost:8080 -structure pi -k 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/halk-kg/halk/internal/cluster"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/serve"
	"github.com/halk-kg/halk/internal/sparql"
	"github.com/halk-kg/halk/internal/viz"
)

// queryServer posts the query to a running halk-serve or halk-shard
// process as serve.QueryRequest, decodes the reply as
// cluster.RangeQueryResponse (halk-serve leaves the range zero), and
// prints the ranked answers. No checkpoint is loaded, so there is no
// local ground truth to mark.
func queryServer(server, sparqlSrc, dsl, structure string, seed int64, k int, timeout time.Duration) {
	base := strings.TrimSuffix(server, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	req := &serve.QueryRequest{
		SPARQL:    sparqlSrc,
		Query:     dsl,
		Structure: structure,
		K:         k,
		TimeoutMS: int(timeout / time.Millisecond),
	}
	if structure != "" {
		req.Seed = seed
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout+2*time.Second)
	defer cancel()
	var resp cluster.RangeQueryResponse
	if err := cluster.DoJSON(ctx, cluster.NewHTTPClient(), http.MethodPost, base+"/v1/query", req, &resp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", resp.Query)
	if resp.Canonical != "" && resp.Canonical != resp.Query {
		fmt.Printf("canonical: %s\n", resp.Canonical)
	}
	note := ""
	if resp.Partial {
		note = " (partial: some shards did not answer)"
	}
	if resp.Hi > resp.Lo {
		note += fmt.Sprintf(" (entities [%d, %d) only)", resp.Lo, resp.Hi)
	}
	fmt.Printf("%d answers from %s in %.1fms%s\n", len(resp.Answers), base, resp.ElapsedMs, note)
	for rank, a := range resp.Answers {
		if a.Distance != nil {
			fmt.Printf("%2d. %-12s d=%.4f\n", rank+1, a.Entity, *a.Distance)
		} else {
			fmt.Printf("%2d. %s\n", rank+1, a.Entity)
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("halk-query: ")

	var (
		ckpt      = flag.String("ckpt", "halk.ckpt", "checkpoint path written by halk-train")
		sparqlSrc = flag.String("sparql", "", "SPARQL query to answer")
		dsl       = flag.String("query", "", "or: a query in the prefix DSL, e.g. 'i(p[r003](e0007), p[r010](e0042))'")
		structure = flag.String("structure", "", "or: sample one query of this structure (e.g. pi)")
		k         = flag.Int("k", 10, "number of answers to print")
		vizDim    = flag.Int("viz", -1, "render this embedding dimension as an ASCII circle")
		seed      = flag.Int64("qseed", 7, "sampling seed for -structure")
		server    = flag.String("server", "", "query a running halk-serve or halk-shard at this address over HTTP instead of loading a checkpoint")
		timeout   = flag.Duration("timeout", 10*time.Second, "request deadline for -server")
	)
	flag.Parse()

	if *k < 1 {
		log.Print("-k must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *server != "" {
		if *sparqlSrc == "" && *dsl == "" && *structure == "" {
			log.Fatal("pass -sparql, -query or -structure")
		}
		queryServer(*server, *sparqlSrc, *dsl, *structure, *seed, *k, *timeout)
		return
	}

	// LoadCheckpointFile verifies the envelope (magic, length, checksum)
	// before decoding, so a truncated, bit-flipped or envelope-less file
	// fails with a clear typed error instead of a half-decoded model.
	var ds *kg.Dataset
	m, info, err := halk.LoadCheckpointFile(*ckpt, halk.SynthLookup(&ds))
	if err != nil {
		log.Fatal(err)
	}
	hdr := info.Header
	log.Printf("loaded %s model (d=%d) trained on %s", m.Name(), hdr.Config.Dim, hdr.Dataset)

	var root *query.Node
	switch {
	case *sparqlSrc != "":
		pq, err := sparql.Parse(*sparqlSrc)
		if err != nil {
			log.Fatal(err)
		}
		a := &sparql.Adaptor{Entities: ds.Train.Entities, Relations: ds.Train.Relations}
		root, err = a.Compile(pq)
		if err != nil {
			log.Fatal(err)
		}
	case *dsl != "":
		root, err = query.Parse(*dsl, ds.Train.Entities, ds.Train.Relations)
		if err != nil {
			log.Fatal(err)
		}
	case *structure != "":
		if !query.HasStructure(*structure) {
			log.Fatalf("unknown structure %q; known: %v", *structure, query.StructureNames())
		}
		s := query.NewSampler(ds.Test, rand.New(rand.NewSource(*seed)))
		var ok bool
		root, ok = s.Sample(*structure)
		if !ok {
			log.Fatalf("could not sample a %s query", *structure)
		}
	default:
		log.Fatal("pass -sparql, -query or -structure")
	}

	fmt.Printf("query: %s\n", root)
	truth := query.Answers(root, ds.Test)
	fmt.Printf("ground truth (test graph): %d answers\n", len(truth))

	for rank, e := range m.TopK(root, *k) {
		mark := " "
		if truth.Has(e) {
			mark = "*"
		}
		fmt.Printf("%2d. %s %s\n", rank+1, ds.Train.Entities.Name(int32(e)), mark)
	}
	fmt.Println("(* = true answer on the test graph)")

	if *vizDim >= 0 && *vizDim < hdr.Config.Dim {
		arcs := m.EmbedQuery(root)
		var pts [][]float64
		for _, e := range m.TopK(root, 6) {
			pts = append(pts, m.EntityAngles(e))
		}
		fmt.Printf("\nembedding dimension %d (labels = top answers in rank order):\n", *vizDim)
		fmt.Print(viz.Dimension(*vizDim, hdr.Config.Rho, arcs[0].C, arcs[0].L, pts))
	}
}
