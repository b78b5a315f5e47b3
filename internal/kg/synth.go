package kg

import (
	"fmt"
	"math/rand"
)

// SynthConfig parameterises the synthetic knowledge-graph generator. The
// generator builds a typed world: each entity gets a type, each relation
// a (source type, destination type) signature, and facts are sampled with
// a skewed tail distribution so that hub entities and one-to-many
// relations emerge — the structural features that drive answer-set
// cardinality in logical-query benchmarks.
//
// The paper evaluates on FB15k, FB15k-237 and NELL995, which cannot be
// redistributed here; the three preset configurations below reproduce
// their structural signatures at laptop scale (see DESIGN.md §1).
type SynthConfig struct {
	Name         string
	NumEntities  int
	NumRelations int // base relations, before inverses
	NumTypes     int
	// HeadFrac is the probability that an entity of a relation's source
	// type participates as a head in that relation.
	HeadFrac float64
	// MeanFanout is the average number of tails per participating head
	// for ordinary relations.
	MeanFanout float64
	// OneToManyFrac is the fraction of relations with a large fan-out
	// (mean ManyFanout), which create the big candidate answer sets that
	// stress the negation operator.
	OneToManyFrac float64
	ManyFanout    float64
	// InverseFrac is the fraction of base relations that also get an
	// explicit inverse relation (the FB15k signature; FB15k-237 removed
	// such near-duplicate inverses).
	InverseFrac float64
	// Holdout fractions for the valid/test splits.
	ValidFrac float64
	TestFrac  float64
	Seed      int64
}

// Synth generates a dataset from cfg. The same config always yields the
// same dataset.
func Synth(cfg SynthConfig) *Dataset {
	if cfg.NumEntities <= 0 || cfg.NumRelations <= 0 || cfg.NumTypes <= 0 {
		panic("kg: Synth: entity, relation and type counts must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	entities := NewDict()
	for i := 0; i < cfg.NumEntities; i++ {
		entities.Add(fmt.Sprintf("e%04d", i))
	}
	relations := NewDict()

	typeOf := make([]int, cfg.NumEntities)
	byType := make([][]EntityID, cfg.NumTypes)
	for i := range typeOf {
		typeOf[i] = rng.Intn(cfg.NumTypes)
		byType[typeOf[i]] = append(byType[typeOf[i]], EntityID(i))
	}

	// Skewed popularity weights within each type: tail selection is
	// approximately Zipfian, producing hub entities.
	weights := make([][]float64, cfg.NumTypes)
	cum := make([][]float64, cfg.NumTypes)
	for ty := range byType {
		weights[ty] = make([]float64, len(byType[ty]))
		cum[ty] = make([]float64, len(byType[ty]))
		total := 0.0
		for i := range weights[ty] {
			weights[ty][i] = 1 / float64(i+1)
			total += weights[ty][i]
			cum[ty][i] = total
		}
	}
	pickTail := func(ty int) EntityID {
		c := cum[ty]
		if len(c) == 0 {
			return EntityID(rng.Intn(cfg.NumEntities))
		}
		x := rng.Float64() * c[len(c)-1]
		lo, hi := 0, len(c)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if c[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return byType[ty][lo]
	}

	full := NewGraph(entities, relations)

	type relSig struct {
		id       RelationID
		src, dst int
		mean     float64
		inverse  RelationID // -1 if none
	}
	sigs := make([]relSig, 0, cfg.NumRelations)
	for r := 0; r < cfg.NumRelations; r++ {
		sig := relSig{
			id:      RelationID(relations.Add(fmt.Sprintf("r%03d", r))),
			src:     rng.Intn(cfg.NumTypes),
			dst:     rng.Intn(cfg.NumTypes),
			mean:    cfg.MeanFanout,
			inverse: -1,
		}
		if rng.Float64() < cfg.OneToManyFrac {
			sig.mean = cfg.ManyFanout
		}
		if rng.Float64() < cfg.InverseFrac {
			sig.inverse = RelationID(relations.Add(fmt.Sprintf("r%03d_inv", r)))
		}
		sigs = append(sigs, sig)
	}

	for _, sig := range sigs {
		for _, h := range byType[sig.src] {
			if rng.Float64() >= cfg.HeadFrac {
				continue
			}
			// Geometric-ish fan-out with the configured mean; at least one.
			k := 1
			for rng.Float64() < 1-1/sig.mean {
				k++
				if k >= 4*int(sig.mean)+4 {
					break
				}
			}
			for j := 0; j < k; j++ {
				t := pickTail(sig.dst)
				if t == h {
					continue
				}
				full.AddTriple(Triple{H: h, R: sig.id, T: t})
				if sig.inverse >= 0 {
					full.AddTriple(Triple{H: t, R: sig.inverse, T: h})
				}
			}
		}
	}

	return Split(cfg.Name, full, cfg.ValidFrac, cfg.TestFrac, rng)
}

// SynthFB15k generates the FB15k stand-in: dense, many inverse-relation
// pairs, strong hubs.
func SynthFB15k(seed int64) *Dataset {
	return Synth(SynthConfig{
		Name:          "FB15k",
		NumEntities:   900,
		NumRelations:  36,
		NumTypes:      8,
		HeadFrac:      0.65,
		MeanFanout:    2.5,
		OneToManyFrac: 0.30,
		ManyFanout:    8,
		InverseFrac:   0.8,
		ValidFrac:     0.08,
		TestFrac:      0.08,
		Seed:          seed,
	})
}

// SynthFB237 generates the FB15k-237 stand-in: inverse relations removed,
// sparser, harder link prediction.
func SynthFB237(seed int64) *Dataset {
	return Synth(SynthConfig{
		Name:          "FB237",
		NumEntities:   800,
		NumRelations:  30,
		NumTypes:      8,
		HeadFrac:      0.5,
		MeanFanout:    2,
		OneToManyFrac: 0.25,
		ManyFanout:    6,
		InverseFrac:   0,
		ValidFrac:     0.1,
		TestFrac:      0.1,
		Seed:          seed,
	})
}

// SynthNELL generates the NELL995 stand-in: sparse, many types
// (hierarchical flavour), low average degree.
func SynthNELL(seed int64) *Dataset {
	return Synth(SynthConfig{
		Name:          "NELL",
		NumEntities:   1000,
		NumRelations:  40,
		NumTypes:      12,
		HeadFrac:      0.45,
		MeanFanout:    1.8,
		OneToManyFrac: 0.2,
		ManyFanout:    6,
		InverseFrac:   0.1,
		ValidFrac:     0.1,
		TestFrac:      0.1,
		Seed:          seed,
	})
}

// Standard returns the three benchmark stand-ins with the given seed.
func Standard(seed int64) []*Dataset {
	return []*Dataset{SynthFB15k(seed), SynthFB237(seed), SynthNELL(seed)}
}

// SynthByName generates the stand-in called name ("FB15k", "FB237" or
// "NELL") — the Dataset.Name a checkpoint header or a -dataset flag
// carries.
func SynthByName(name string, seed int64) (*Dataset, error) {
	switch name {
	case "FB15k":
		return SynthFB15k(seed), nil
	case "FB237":
		return SynthFB237(seed), nil
	case "NELL":
		return SynthNELL(seed), nil
	}
	return nil, fmt.Errorf("kg: unknown dataset %q (want FB15k, FB237 or NELL)", name)
}
