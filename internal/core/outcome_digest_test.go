package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// writeOutcome feeds the user-visible parts of a resolution into h: the
// verdicts, the resolved tuple, the resolved map after every round and every
// suggestion, rules included.
func writeOutcome(h hash.Hash, sch *relation.Schema, o *Outcome) {
	fmt.Fprintf(h, "valid=%v invalidInput=%v tuple=%v\n", o.Valid, o.InvalidInput, o.Tuple)
	for i, r := range o.ResolvedPerRound {
		fmt.Fprintf(h, "round %d: %v\n", i, r)
	}
	for i, s := range o.Suggestions {
		fmt.Fprintf(h, "suggest %d: %v %v %v\n", i, s.Attrs, s.Candidates, s.Derivable)
		for _, r := range s.Rules {
			fmt.Fprintln(h, r.Format(sch))
		}
	}
}

// writeDiagnosis feeds Diagnose's verdict and conflict core for spec into h.
func writeDiagnosis(h hash.Hash, spec *model.Spec, opts encode.Options) {
	enc := encode.Build(spec, opts)
	c, ok := Diagnose(enc)
	fmt.Fprintf(h, "diagnose ok=%v\n", ok)
	if ok {
		h.Write([]byte(c.Format(enc)))
	}
}

// mutatePerson damages a seeded Person entity the ways real feeds do:
// nulled cells, CFD constants from outside the entity swapped into AC and
// city, and random explicit order edges (which may contradict the data).
func mutatePerson(rng *rand.Rand, ds *datagen.Dataset, spec *model.Spec) *model.Spec {
	spec = spec.Clone()
	in := spec.TI.Inst
	sch := spec.Schema()
	ac, city := sch.MustAttr("AC"), sch.MustAttr("city")
	n := in.Len()
	for t := 0; t < n; t++ {
		row := in.Tuple(relation.TupleID(t))
		if rng.Intn(4) == 0 {
			row[1+rng.Intn(sch.Len()-1)] = relation.Null
		}
		if rng.Intn(4) == 0 {
			g := ds.Gamma[rng.Intn(len(ds.Gamma))]
			row[ac] = g.PX[0]
		}
		if rng.Intn(4) == 0 {
			g := ds.Gamma[rng.Intn(len(ds.Gamma))]
			row[city] = g.VB
		}
	}
	for e := rng.Intn(3); e > 0; e-- {
		t1, t2 := relation.TupleID(rng.Intn(n)), relation.TupleID(rng.Intn(n))
		if t1 != t2 {
			spec.TI.MustOrder(relation.Attr(rng.Intn(sch.Len())), t1, t2)
		}
	}
	return spec
}

// TestOutcomeDigest pins what resolution returns — validity, rolled-back
// input, the resolved tuple, the resolved map per round and every
// suggestion — plus Diagnose's conflict cores, on three input sets:
// interactive Person entities, mutated Person entities and random small
// specifications under tiny transitivity caps (which force the sparse
// encoding). A change to the encoder that claims to drop only clauses that
// never fire must leave these digests unchanged; regenerate them only for a
// deliberate change of behaviour.
func TestOutcomeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves about 200 Person entities")
	}
	ds := datagen.Person(datagen.PersonConfig{Entities: 60, MinTuples: 2, MaxTuples: 8, Seed: 7})
	sch := ds.Schema
	for _, tc := range []struct {
		name string
		want string
		run  func(h hash.Hash)
	}{
		{"person-interactive", "96bf574ddc931720a143384b7afb123cebe9417412789c6307d913816bda975b", func(h hash.Hash) {
			for _, ent := range ds.Entities {
				out, err := Resolve(ent.Spec.Clone(), &SimulatedUser{Truth: ent.Truth, MaxPerRound: 1}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				writeOutcome(h, sch, out)
			}
		}},
		{"person-mutated", "898e0d94a59d6fb22870933f166ec8158f938012c4b610e7e635c0b21ae3d77c", func(h hash.Hash) {
			rng := rand.New(rand.NewSource(13))
			for _, ent := range ds.Entities {
				spec := mutatePerson(rng, ds, ent.Spec)
				out, err := Resolve(spec.Clone(), &SimulatedUser{Truth: ent.Truth, MaxPerRound: 1}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				writeOutcome(h, sch, out)
				writeDiagnosis(h, spec, encode.Options{})
			}
		}},
		{"random-small-cap", "42f3b7ca0c398d94e913259b27dfffc3898d311b98a45e37767f7c314c251f3d", func(h hash.Hash) {
			rng := rand.New(rand.NewSource(1301))
			for i := 0; i < 3000; i++ {
				spec := randomSpec(rng)
				opts := encode.Options{TransitivityCap: 1 + i%3}
				last := spec.TI.Inst.Tuple(relation.TupleID(spec.TI.Inst.Len() - 1))
				user := &SimulatedUser{Truth: last.Clone(), MaxPerRound: 1}
				out, err := Resolve(spec.Clone(), user, Options{Encode: opts})
				if err != nil {
					t.Fatal(err)
				}
				writeOutcome(h, spec.Schema(), out)
				writeDiagnosis(h, spec, opts)
			}
		}},
	} {
		h := sha256.New()
		tc.run(h)
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
