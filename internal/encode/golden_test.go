package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// writeEncoding feeds everything downstream code reads off an encoding into
// h: the CNF text, the instance→clause index and the variable→atom map.
func writeEncoding(h hash.Hash, e *Encoding) {
	h.Write([]byte(e.CNF().String()))
	fmt.Fprintln(h, e.InstanceClauseIndex())
	for v := 0; v < e.NumVars(); v++ {
		p := e.Pair(sat.Var(v))
		fmt.Fprintf(h, "%d:%d<%d\n", p.Attr, p.A1, p.A2)
	}
}

// digestOf hashes the encodings of specs built one after another, either
// standalone or through one shared skeleton.
func digestOf(specs []*model.Spec, skeleton bool) string {
	h := sha256.New()
	k := NewSkeleton(specs[0].Sigma, specs[0].Gamma, Options{})
	for _, spec := range specs {
		if skeleton {
			writeEncoding(h, k.Build(spec))
		} else {
			writeEncoding(h, Build(spec, Options{}))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPerson is n seeded Person entities of 2–8 rows under the full
// 983 Σ / 1000 Γ rule set; their city and AC domains take the sparse path.
// Each encodes to about 3k clauses.
func goldenPerson(n int) []*model.Spec {
	ds := datagen.Person(datagen.PersonConfig{Entities: n, MinTuples: 2, MaxTuples: 8, Seed: 1})
	specs := make([]*model.Spec, len(ds.Entities))
	for i, e := range ds.Entities {
		specs[i] = e.Spec
	}
	return specs
}

// goldenNBA is the first four seeded NBA players with 40–72 rows.
func goldenNBA() []*model.Spec {
	var specs []*model.Spec
	for _, e := range datagen.NBA(datagen.NBAConfig{Players: 200, Seed: 1}).Entities {
		if n := e.Spec.TI.Inst.Len(); n >= 40 && n <= 72 && len(specs) < 4 {
			specs = append(specs, e.Spec)
		}
	}
	return specs
}

// TestEncodingGoldenDigest pins the encoder's output byte for byte, so a
// faster encoder can show it emits exactly the same formula. Regenerate the
// constants only for a deliberate change to the encoding.
func TestEncodingGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes about 750k clauses")
	}
	person, nba := goldenPerson(6), goldenNBA()
	sparse := 0
	for _, spec := range person {
		if Build(spec, Options{}).Sparse {
			sparse++
		}
	}
	if sparse == 0 {
		t.Fatal("no Person entity took the sparse path")
	}
	if len(nba) != 4 {
		t.Fatalf("found %d NBA players with 40-72 rows, want 4", len(nba))
	}
	for _, tc := range []struct {
		name  string
		specs []*model.Spec
		want  string
	}{
		{"person", person, "d543decf1b30c2c2072d32ae61be7d2b1a1bb1ce88921f4d40129bbf8ce58c62"},
		{"nba", nba, "5fb51cf53132f254e80b9bafdeee738890c5b8d81c36a07ba77bfe57e7330b05"},
	} {
		for _, skeleton := range []bool{false, true} {
			if got := digestOf(tc.specs, skeleton); got != tc.want {
				t.Errorf("%s (skeleton=%v): digest %s, want %s", tc.name, skeleton, got, tc.want)
			}
		}
	}
}

// TestEncodingDeterministic builds the same inputs twice from scratch and
// requires identical formulas, including after an ExtendRows and an
// ExtendAnswers delta that each join two new values at once: variable
// numbering, clause order and Ω order must not follow map iteration order.
func TestEncodingDeterministic(t *testing.T) {
	sch := fixtures.PersonSchema()
	attr := func(name string) relation.Attr {
		a, ok := sch.Attr(name)
		if !ok {
			t.Fatalf("no attribute %q", name)
		}
		return a
	}
	row := func(city, county string) relation.Tuple {
		tu := relation.NewTuple(sch)
		tu[attr("name")] = relation.String("George")
		tu[attr("city")] = relation.String(city)
		tu[attr("county")] = relation.String(county)
		return tu
	}
	extendRows := func() *Encoding {
		e := Build(fixtures.GeorgeSpec(), Options{})
		if !e.ExtendRows([]relation.Tuple{row("Boston", "Suffolk"), row("Austin", "Travis")}, nil) {
			t.Fatal("ExtendRows fell back to a rebuild")
		}
		return e
	}
	extendAnswers := func() *Encoding {
		e := Build(fixtures.GeorgeSpec(), Options{})
		if !e.ExtendAnswers(map[relation.Attr]relation.Value{
			attr("city"): relation.String("Boston"), attr("county"): relation.String("Suffolk"),
			attr("zip"): relation.String("02108"),
		}) {
			t.Fatal("ExtendAnswers fell back to a rebuild")
		}
		return e
	}
	digest := func(build func() *Encoding) string {
		h := sha256.New()
		writeEncoding(h, build())
		return hex.EncodeToString(h.Sum(nil))
	}
	type detCase struct {
		name    string
		rebuild int // a map of few keys can repeat its order by chance
		build   func() string
	}
	cases := []detCase{
		{"extend-rows", 8, func() string { return digest(extendRows) }},
		{"extend-answers", 8, func() string { return digest(extendAnswers) }},
	}
	if !testing.Short() {
		person := goldenPerson(2)
		cases = append(cases, detCase{"person-sparse", 2, func() string { return digestOf(person, false) }})
	}
	for _, tc := range cases {
		first := tc.build()
		for i := 0; i < tc.rebuild; i++ {
			if got := tc.build(); got != first {
				t.Fatalf("%s: rebuild %d gave digest %s, first build %s", tc.name, i+1, got, first)
			}
		}
	}
}
