package kg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// benchSynth is the serving benchmark's table graph (benchmark/inputs.go
// synthDataset at seed 1), copied as a literal so that this package pins
// it without importing the benchmark.
func benchSynth(entities int, headFrac float64) *Dataset {
	return Synth(SynthConfig{
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
		Seed:          1,
	})
}

// datasetDigest hashes what a Dataset exposes to its readers: each
// split's Triples() in order, then Successors(e, r) and
// Predecessors(e, r) for every relation r and every entity e in ID
// order, each list prefixed with its length.
func datasetDigest(ds *Dataset) string {
	h := sha256.New()
	for _, g := range []*Graph{ds.Train, ds.Valid, ds.Test} {
		writeInt(h, g.NumTriples())
		for _, t := range g.Triples() {
			writeInt(h, int(t.H), int(t.R), int(t.T))
		}
		for r := 0; r < g.NumRelations(); r++ {
			for e := 0; e < g.NumEntities(); e++ {
				writeList(h, g.Successors(EntityID(e), RelationID(r)))
				writeList(h, g.Predecessors(EntityID(e), RelationID(r)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeList(h hash.Hash, s []EntityID) {
	writeInt(h, len(s))
	for _, e := range s {
		writeInt(h, int(e))
	}
}

func writeInt(h hash.Hash, vs ...int) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
}

// TestSynthGolden pins the synthetic datasets across revisions: a change
// to the generator or to the graph's indexes that moves one triple, or
// reorders one adjacency list, changes a digest. TestSynthDeterministic
// only compares two builds inside one process.
func TestSynthGolden(t *testing.T) {
	cases := []struct {
		name string
		ds   func() *Dataset
		want string
	}{
		{"SynthFB15k(1)", func() *Dataset { return SynthFB15k(1) }, "ce9040559867fcce109155d4970370f2b727f2e1528857f57d687e9ad2c2b065"},
		{"bench small (256, 0.65)", func() *Dataset { return benchSynth(256, 0.65) }, "1963aa314ab8f43baaa99b82206dbc6ab2c2532e970de41342f3bfd01466ef0e"},
		{"bench large (20000, 0.1)", func() *Dataset { return benchSynth(20000, 0.1) }, "e63278bfb000c6425ff2f3fc3167fd1698d0f72759ea600924f27606a4eaebbd"},
	}
	for _, c := range cases {
		if got := datasetDigest(c.ds()); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
