package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"conflictres"
	"conflictres/internal/relation"
)

// oracleSpecKey is the text-hashing cache key specKey replaced: it hashes
// every Σ/Γ/trust text of the compiled rule set again for each entity. It
// stays here as the reference for which problems must share a key.
func oracleSpecKey(rules *conflictres.RuleSet, spec *conflictres.Spec, orders []orderJSON, mode conflictres.ResolutionMode) cacheKey {
	h := sha256.New()
	for _, n := range rules.Schema().Names() {
		hashField(h, n)
	}
	hashField(h, "#sigma")
	for _, s := range rules.CurrencyTexts() {
		hashField(h, s)
	}
	hashField(h, "#gamma")
	for _, s := range rules.CFDTexts() {
		hashField(h, s)
	}
	hashField(h, "#trust")
	for _, s := range rules.TrustTexts() {
		hashField(h, s)
	}
	hashField(h, "#data")
	in := spec.Instance()
	for _, id := range in.TupleIDs() {
		for _, v := range in.Tuple(id) {
			hashField(h, v.Quote())
		}
		hashField(h, "#row")
	}
	hashField(h, "#sources")
	for _, id := range in.TupleIDs() {
		hashField(h, in.Source(id))
	}
	hashField(h, "#mode")
	hashField(h, mode.Strategy.String())
	hashField(h, "#orders")
	for _, o := range orders {
		hashField(h, o.Attr)
		var n [16]byte
		binary.LittleEndian.PutUint64(n[:8], uint64(o.T1))
		binary.LittleEndian.PutUint64(n[8:], uint64(o.T2))
		h.Write(n[:])
	}
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// keyProblem is one cache-key input: a wire rule set plus one entity.
type keyProblem struct {
	rules   ruleSetJSON
	rows    [][]relation.Value
	sources []string
	mode    conflictres.Strategy
	orders  []orderJSON
}

// Small pools, so random problems collide often and near-misses differ in
// one field; cell strings split the same letters differently ("ab"|"c" vs
// "a"|"bc") to probe field boundaries.
var (
	keySchemas = [][]string{{"a", "b", "c"}, {"a", "b", "d"}, {"ab", "c", "d"}}
	keyCells   = []relation.Value{relation.String("a"), relation.String("ab"), relation.String("bc"),
		relation.String("c"), relation.String(""), relation.String("1"), relation.Int(1),
		relation.Float(1), relation.Float(2.5), relation.Null}
	keySources = []string{"", "s1", "s2", "s1s2"}
	keyModes   = []conflictres.Strategy{conflictres.StrategySAT, conflictres.StrategyLatestWriterWins,
		conflictres.StrategyHighestTrust, conflictres.StrategyConsensus}
	keyTrust = []string{`"s1" > "s2"`, `"s1" = 0.5`, `"s2" = 0.25`}
)

// keyTexts returns the constraint-text pools over a schema.
func keyTexts(sch []string) (sigma, gamma []string) {
	a, b, c := sch[0], sch[1], sch[2]
	sigma = []string{
		fmt.Sprintf(`t1[%s] < t2[%s] -> t1 <[%s] t2`, a, a, a),
		fmt.Sprintf(`t1 <[%s] t2 -> t1 <[%s] t2`, a, b),
		fmt.Sprintf(`t1 <[%s] t2 -> t1 <[%s] t2`, b, c),
		fmt.Sprintf(`t1[%s] = "a" & t2[%s] = "ab" -> t1 <[%s] t2`, c, c, c),
	}
	gamma = []string{
		fmt.Sprintf(`%s = "a" => %s = "c"`, a, b),
		fmt.Sprintf(`%s = "ab" => %s = "bc"`, b, c),
	}
	return sigma, gamma
}

// subset draws a random ordered selection from pool (possibly empty).
func subset(rng *rand.Rand, pool []string) []string {
	var out []string
	for _, i := range rng.Perm(len(pool))[:rng.Intn(len(pool)+1)] {
		out = append(out, pool[i])
	}
	return out
}

func randomRules(rng *rand.Rand) ruleSetJSON {
	sch := keySchemas[rng.Intn(len(keySchemas))]
	sigma, gamma := keyTexts(sch)
	return ruleSetJSON{Schema: sch, Currency: subset(rng, sigma), CFDs: subset(rng, gamma), Trust: subset(rng, keyTrust)}
}

func randomRow(rng *rand.Rand) []relation.Value {
	row := make([]relation.Value, 3)
	for i := range row {
		row[i] = keyCells[rng.Intn(len(keyCells))]
	}
	return row
}

func randomProblem(rng *rand.Rand) keyProblem {
	p := keyProblem{rules: randomRules(rng), mode: keyModes[rng.Intn(len(keyModes))]}
	n := 1 + rng.Intn(3)
	sourced := rng.Intn(2) == 0
	for range n {
		p.rows = append(p.rows, randomRow(rng))
		if sourced {
			p.sources = append(p.sources, keySources[rng.Intn(len(keySources))])
		}
	}
	for range rng.Intn(3) {
		p.orders = append(p.orders, orderJSON{Attr: p.rules.Schema[rng.Intn(3)], T1: rng.Intn(n), T2: rng.Intn(n)})
	}
	return p
}

// mutate copies p with at most one component changed (sometimes none), so
// the corpus holds exact duplicates and one-field near-misses.
func mutate(rng *rand.Rand, p keyProblem) keyProblem {
	q := keyProblem{
		rules: ruleSetJSON{
			Schema:   append([]string(nil), p.rules.Schema...),
			Currency: append([]string(nil), p.rules.Currency...),
			CFDs:     append([]string(nil), p.rules.CFDs...),
			Trust:    append([]string(nil), p.rules.Trust...),
		},
		sources: append([]string(nil), p.sources...),
		mode:    p.mode,
		orders:  append([]orderJSON(nil), p.orders...),
	}
	for _, r := range p.rows {
		q.rows = append(q.rows, append([]relation.Value(nil), r...))
	}
	switch rng.Intn(9) {
	case 0: // identical copy
	case 1:
		sigma, gamma := keyTexts(q.rules.Schema)
		q.rules.Currency, q.rules.CFDs = subset(rng, sigma), subset(rng, gamma)
	case 2:
		q.rules.Trust = subset(rng, keyTrust)
	case 3:
		q.rows[rng.Intn(len(q.rows))][rng.Intn(3)] = keyCells[rng.Intn(len(keyCells))]
	case 4:
		q.rows = append(q.rows, randomRow(rng))
		if q.sources != nil {
			q.sources = append(q.sources, keySources[rng.Intn(len(keySources))])
		}
	case 5:
		if q.sources == nil {
			q.sources = make([]string, len(q.rows))
		}
		q.sources[rng.Intn(len(q.sources))] = keySources[rng.Intn(len(keySources))]
	case 6:
		q.mode = keyModes[rng.Intn(len(keyModes))]
	case 7:
		q.orders = append(q.orders, orderJSON{Attr: q.rules.Schema[rng.Intn(3)], T1: rng.Intn(len(q.rows)), T2: rng.Intn(len(q.rows))})
	case 8:
		if len(q.orders) > 0 {
			q.orders = q.orders[:len(q.orders)-1]
		}
	}
	return q
}

// keys compiles p's rules afresh (a new RuleSet every time) and returns the
// new and the oracle cache key.
func (p keyProblem) keys(t *testing.T) (got, want cacheKey) {
	t.Helper()
	rules, err := compileWireRules(&p.rules)
	if err != nil {
		t.Fatalf("compile %+v: %v", p.rules, err)
	}
	in := conflictres.NewInstance(rules.Schema())
	for i, r := range p.rows {
		src := ""
		if i < len(p.sources) {
			src = p.sources[i]
		}
		if _, err := in.AddSourced(relation.Tuple(r), src); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := conflictres.NewSpecFromRules(in, rules)
	if err != nil {
		t.Fatal(err)
	}
	mode := conflictres.ResolutionMode{Strategy: p.mode}
	return specKey(rulesKey(&p.rules), spec, p.orders, mode), oracleSpecKey(rules, spec, p.orders, mode)
}

// TestSpecKeyMatchesTextOracle is the cache-key differential: over seeded
// random problems and one-field mutations of them, two problems share a
// specKey exactly when they share the text-hashing oracle's key.
func TestSpecKeyMatchesTextOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var corpus []keyProblem
	for range 40 {
		corpus = append(corpus, randomProblem(rng))
	}
	for range 360 {
		corpus = append(corpus, mutate(rng, corpus[rng.Intn(len(corpus))]))
	}
	got := make([]cacheKey, len(corpus))
	want := make([]cacheKey, len(corpus))
	for i, p := range corpus {
		got[i], want[i] = p.keys(t)
	}
	equal := 0
	for i := range corpus {
		for j := i + 1; j < len(corpus); j++ {
			if (got[i] == got[j]) != (want[i] == want[j]) {
				t.Fatalf("problems %d and %d: specKey equal %v, oracle equal %v\n%+v\n%+v",
					i, j, got[i] == got[j], want[i] == want[j], corpus[i], corpus[j])
			}
			if want[i] == want[j] {
				equal++
			}
		}
	}
	if equal < 50 {
		t.Fatalf("only %d equal pairs: the corpus does not exercise key sharing", equal)
	}
	t.Logf("%d problems, %d equal pairs", len(corpus), equal)
}

// edithKeySpec binds two of Edith's tuples to rules compiled from
// edithRules.
func edithKeySpec(t *testing.T, rules *conflictres.RuleSet) *conflictres.Spec {
	t.Helper()
	in := conflictres.NewInstance(rules.Schema())
	s := relation.String
	in.MustAdd(relation.Tuple{s("Edith"), s("working"), s("nurse"), relation.Int(1), s("NY"), s("212"), s("10036"), s("Manhattan")})
	in.MustAdd(relation.Tuple{s("Edith"), s("retired"), s("n/a"), relation.Int(3), s("LA"), s("213"), s("90058"), s("Vermont")})
	spec, err := conflictres.NewSpecFromRules(in, rules)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecKeySameForRecompiledRules pins that the key follows the rule
// texts, not the compiled RuleSet's identity: with the rule cache off, two
// requests compile two RuleSets from the same wire texts and must still
// share cached results.
func TestSpecKeySameForRecompiledRules(t *testing.T) {
	s := New(Config{RuleCacheSize: -1})
	defer s.Close()
	wire := edithRules()
	r1, k1, err := s.compileRules(&wire)
	if err != nil {
		t.Fatal(err)
	}
	again := edithRules()
	r2, k2, err := s.compileRules(&again)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("rule cache is off, want two compiled RuleSets")
	}
	s1, s2 := edithKeySpec(t, r1), edithKeySpec(t, r2)
	var mode conflictres.ResolutionMode
	if specKey(k1, s1, nil, mode) != specKey(k2, s2, nil, mode) {
		t.Fatal("identical wire rules and entity gave different cache keys")
	}
}

// TestSpecKeyAllocsIndependentOfRuleSet pins the per-entity key cost to
// the entity: hashing a Person entity under Person's ~2k rules allocates no
// more than hashing an Edith entity under the paper's 9.
func TestSpecKeyAllocsIndependentOfRuleSet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops objects at random")
	}
	pw := personWorld(t)
	person, err := conflictres.NewSpecFromRules(pw.ents[0].Spec.TI.Inst, pw.rules)
	if err != nil {
		t.Fatal(err)
	}
	ewire := edithRules()
	erules, err := compileWireRules(&ewire)
	if err != nil {
		t.Fatal(err)
	}
	edith := edithKeySpec(t, erules)
	var mode conflictres.ResolutionMode
	pk, ek := rulesKey(&pw.wire), rulesKey(&ewire)
	pa := testing.AllocsPerRun(100, func() { specKey(pk, person, nil, mode) })
	ea := testing.AllocsPerRun(100, func() { specKey(ek, edith, nil, mode) })
	t.Logf("specKey allocs: %.0f under %d Person rules, %.0f under %d Edith rules",
		pa, len(pw.wire.Currency)+len(pw.wire.CFDs), ea, len(ewire.Currency)+len(ewire.CFDs))
	if pa != ea {
		t.Fatalf("specKey allocates %.0f under Person's rules, %.0f under Edith's: its cost grows with the rule set", pa, ea)
	}
}
