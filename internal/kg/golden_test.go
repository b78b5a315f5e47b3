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

// datasetDigest hashes what a Dataset exposes to its readers, one
// digest per part: the Train graph, ValidEdges, then the Test graph. A
// graph hashes as its Triples() in order, then Successors(e, r) and
// Predecessors(e, r) for every relation r and every entity e in ID
// order; the edges hash as their count, then the triples in order.
func datasetDigest(ds *Dataset) [3]string {
	return [3]string{graphDigest(ds.Train), triplesDigest(ds.ValidEdges), graphDigest(ds.Test)}
}

func graphDigest(g *Graph) string {
	h := sha256.New()
	writeTriples(h, g.Triples())
	for r := 0; r < g.NumRelations(); r++ {
		for e := 0; e < g.NumEntities(); e++ {
			writeList(h, g.Successors(EntityID(e), RelationID(r)))
			writeList(h, g.Predecessors(EntityID(e), RelationID(r)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func triplesDigest(ts []Triple) string {
	h := sha256.New()
	writeTriples(h, ts)
	return hex.EncodeToString(h.Sum(nil))
}

func writeTriples(h hash.Hash, ts []Triple) {
	writeInt(h, len(ts))
	for _, t := range ts {
		writeInt(h, int(t.H), int(t.R), int(t.T))
	}
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
// only compares two builds inside one process. The Train and Test
// digests are those of the graphs built when a dataset also held a
// validation graph; the ValidEdges digest is that graph's triples past
// Train's.
func TestSynthGolden(t *testing.T) {
	cases := []struct {
		name string
		ds   func() *Dataset
		want [3]string // Train, ValidEdges, Test
	}{
		{"SynthFB15k(1)", func() *Dataset { return SynthFB15k(1) }, [3]string{
			"da9dd2e0d17a237e1161f5b0ad99268b171b80ba7c8e9a939cac59615d9f1c36",
			"26991512e01cdf46b5989d790afbc6ca0ff5666a36f9340e674701fe3d29fbda",
			"3fbfbe6cc058978ba71d881c39d174543c2d9af5a1027ef87c53873749a0f86a",
		}},
		{"bench small (256, 0.65)", func() *Dataset { return benchSynth(256, 0.65) }, [3]string{
			"dc8d36080f13b575de2822f697c71067356cb4b76e4aebb15240529608acf09a",
			"b9c15574bed2c8c52c6b95abec115fe0a6e294a0063dd0c0a5dc66b867c63e73",
			"9e6c0fb6c95aae10a81f419126c7deab4a13057fd5361f971b49157ab952eff8",
		}},
		{"bench large (20000, 0.1)", func() *Dataset { return benchSynth(20000, 0.1) }, [3]string{
			"601cb348d5d3bc84a67a5facd3e2b3215dafa44b166df7da550ce41ad1f64b5e",
			"8f48ad73bbb56a961a1be3698ee4a47d361f7c6359847a7a18bb52a83889cf27",
			"e0eed0f6766647ed50c6c592088264449aeb01af91c42e777f619fd5a1573d69",
		}},
	}
	for _, c := range cases {
		got := datasetDigest(c.ds())
		for i, part := range []string{"Train", "ValidEdges", "Test"} {
			if got[i] != c.want[i] {
				t.Errorf("%s: %s digest %s, want %s", c.name, part, got[i], c.want[i])
			}
		}
	}
}
