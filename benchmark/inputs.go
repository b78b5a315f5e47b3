package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
)

// synthDataset generates the table's graph: the FB15k stand-in
// (kg.SynthFB15k's configuration) at the profile's entity count and head
// fraction.
func synthDataset(p profile, large bool) *kg.Dataset {
	entities, headFrac := p.SmallEntities, 0.65
	if large {
		entities, headFrac = p.LargeEntities, p.LargeHeadFrac
	}
	return kg.Synth(kg.SynthConfig{
		Name:          "FB15k",
		NumEntities:   entities,
		NumRelations:  36,
		NumTypes:      8,
		HeadFrac:      headFrac,
		MeanFanout:    2.5,
		OneToManyFrac: 0.30,
		ManyFanout:    8,
		InverseFrac:   0.8,
		ValidFrac:     0.08,
		TestFrac:      0.08,
		Seed:          systemSeed,
	})
}

// poolQuery is one generated query: its DAG, the request text the server
// sees, and the canonical key the answer cache would file it under.
type poolQuery struct {
	Structure string
	Root      *query.Node
	DSL       string
	Key       string
}

// renderDSL writes n in the prefix DSL with dictionary names, the form
// query.Parse resolves; Node.String renders raw IDs, which do not parse.
func renderDSL(n *query.Node, ents, rels *kg.Dict) string {
	var b strings.Builder
	var walk func(*query.Node)
	walk = func(n *query.Node) {
		switch n.Op {
		case query.OpAnchor:
			b.WriteString(ents.Name(int32(n.Anchor)))
			return
		case query.OpProjection:
			b.WriteString("p[" + rels.Name(int32(n.Rel)) + "](")
		case query.OpIntersection:
			b.WriteString("i(")
		case query.OpDifference:
			b.WriteString("d(")
		case query.OpNegation:
			b.WriteString("n(")
		case query.OpUnion:
			b.WriteString("u(")
		}
		for i, a := range n.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			walk(a)
		}
		b.WriteByte(')')
	}
	walk(n)
	return b.String()
}

// samplePool draws n distinct queries (by canonical key), cycling through
// the structures so each gets an equal share. Sampling is on the test
// split, as halk-serve's "structure" mode does.
func samplePool(ds *kg.Dataset, structures []string, n int, rng *rand.Rand) ([]poolQuery, error) {
	s := query.NewSampler(ds.Test, rng)
	seen := make(map[string]bool, n)
	pool := make([]poolQuery, 0, n)
	for misses := 0; len(pool) < n; {
		st := structures[len(pool)%len(structures)]
		root, ok := s.Sample(st)
		key := ""
		if ok {
			key = query.CanonicalKey(root)
		}
		if !ok || seen[key] {
			if misses++; misses > 50*n+1000 {
				return nil, fmt.Errorf("could not sample %d distinct queries (stuck on %q after %d)", n, st, len(pool))
			}
			continue
		}
		seen[key] = true
		pool = append(pool, poolQuery{
			Structure: st,
			Root:      root,
			DSL:       renderDSL(root, ds.Train.Entities, ds.Train.Relations),
			Key:       key,
		})
	}
	return pool, nil
}

// edge is one triple of a POST /v1/edges body, by dictionary name.
type edge struct {
	H string `json:"h"`
	R string `json:"r"`
	T string `json:"t"`
}

// sampleNonEdges draws n distinct triples absent from g whose head has a
// successor under the drawn relation, so every write is a real graph
// mutation with a fine-tune signal.
func sampleNonEdges(g *kg.Graph, n int, rng *rand.Rand) []kg.Triple {
	seen := make(map[kg.Triple]bool, n)
	out := make([]kg.Triple, 0, n)
	for len(out) < n {
		tr := kg.Triple{
			H: kg.EntityID(rng.Intn(g.NumEntities())),
			R: kg.RelationID(rng.Intn(g.NumRelations())),
			T: kg.EntityID(rng.Intn(g.NumEntities())),
		}
		if tr.H == tr.T || seen[tr] || g.OutDegree(tr.H, tr.R) == 0 || g.HasTriple(tr.H, tr.R, tr.T) {
			continue
		}
		seen[tr] = true
		out = append(out, tr)
	}
	return out
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	pool    []poolQuery
	bodies  [][]byte // request i's POST body (one query, or one batch)
	groups  [][]int  // request i's pool indices (len 1, or the batch size)
	seqs    [][]int  // per client: the request indices it sends, cycled
	next    []int    // per client: how far into its sequence earlier phases got
	writes  [][]byte // POST /v1/edges bodies, in send order
	written int      // how many of them have been sent
	edges   []kg.Triple
	sha256  string
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// buildInputs generates a workload's request stream. Workloads sharing a
// table and structure set share a pool for the same seed (batch_scan and
// cluster_2x2 send scan_wide's queries; cache_zipf and ingest_mix send
// embed_mix's).
func buildInputs(w workload, p profile, ds *kg.Dataset, seed int64) (*inputs, error) {
	n := p.SmallPool
	if w.Large {
		n = p.LargePool
	}
	pool, err := samplePool(ds, w.Structures, n, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	in := &inputs{pool: pool}

	type queryBody struct {
		Query string `json:"query"`
		K     int    `json:"k,omitempty"`
	}
	if w.Batch > 0 {
		for lo := 0; lo+w.Batch <= len(pool); lo += w.Batch {
			items := make([]queryBody, w.Batch)
			group := make([]int, w.Batch)
			for j := range items {
				items[j] = queryBody{Query: pool[lo+j].DSL}
				group[j] = lo + j
			}
			in.bodies = append(in.bodies, mustJSON(struct {
				Queries []queryBody `json:"queries"`
				K       int         `json:"k"`
			}{items, answerK}))
			in.groups = append(in.groups, group)
		}
	} else {
		for i, q := range pool {
			in.bodies = append(in.bodies, mustJSON(queryBody{Query: q.DSL, K: answerK}))
			in.groups = append(in.groups, []int{i})
		}
	}

	in.seqs, in.next = make([][]int, w.Clients), make([]int, w.Clients)
	for c := range in.seqs {
		if w.Zipf {
			z := rand.NewZipf(rand.New(rand.NewSource(seed+100+int64(c))), zipfS, 1, uint64(len(in.bodies)-1))
			in.seqs[c] = make([]int, zipfDraws)
			for i := range in.seqs[c] {
				in.seqs[c][i] = int(z.Uint64())
			}
		} else {
			// Client c of C walks the pool from offset c in steps of C, so
			// the clients together send every request once per cycle.
			for i := c; i < len(in.bodies); i += w.Clients {
				in.seqs[c] = append(in.seqs[c], i)
			}
		}
	}

	if w.Ingest {
		g := ds.Train
		in.edges = sampleNonEdges(g, p.Writes*edgesPerPost, rand.New(rand.NewSource(seed+2)))
		for lo := 0; lo < len(in.edges); lo += edgesPerPost {
			add := make([]edge, edgesPerPost)
			for j, tr := range in.edges[lo : lo+edgesPerPost] {
				add[j] = edge{g.Entities.Name(int32(tr.H)), g.Relations.Name(int32(tr.R)), g.Entities.Name(int32(tr.T))}
			}
			in.writes = append(in.writes, mustJSON(struct {
				Add []edge `json:"add"`
			}{add}))
		}
	}

	h := sha256.New()
	for _, b := range in.bodies {
		h.Write(b)
	}
	for _, seq := range in.seqs {
		for _, i := range seq {
			_ = binary.Write(h, binary.LittleEndian, uint32(i)) // a hash.Hash never fails a write
		}
	}
	for _, b := range in.writes {
		h.Write(b)
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	return in, nil
}
