//go:build !race

// Under the race detector sync.Pool drops a quarter of what is Put, so
// a warm pool is not guaranteed there; the ceilings are checked by the
// plain test run.

package halk

import (
	"math/rand"
	"testing"

	"github.com/halk-kg/halk/internal/query"
)

// TestEmbedQueryAllocCeiling keeps the gradient tape from creeping back
// into the online embed. What a warm forward tape still allocates are
// the group hot vectors, the []V slices and shift constants of ops.go
// and the copied-out arcs: 12 allocations for 1p and 87 for 3ippd when
// the ceilings were set, against ~900 per query on the gradient tape.
func TestEmbedQueryAllocCeiling(t *testing.T) {
	m, ds := testModel(t, 87)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(88)))
	for _, tc := range []struct {
		structure string
		ceiling   float64
	}{{"1p", 20}, {"3ippd", 120}} {
		q, ok := s.Sample(tc.structure)
		if !ok {
			t.Fatalf("sampling %s failed", tc.structure)
		}
		m.EmbedQuery(q) // warm the pool: slabs and node list sized for q
		got := testing.AllocsPerRun(100, func() { m.EmbedQuery(q) })
		t.Logf("%s: %.0f allocs per EmbedQuery", tc.structure, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per EmbedQuery on a warm pool, ceiling %.0f", tc.structure, got, tc.ceiling)
		}
	}
}
