package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/relation"
)

// rulesJSON is the rule-set part of every request body and stream header.
type rulesJSON struct {
	Schema   []string `json:"schema"`
	Currency []string `json:"currency,omitempty"`
	CFDs     []string `json:"cfds,omitempty"`
}

// ruleTexts renders a generated dataset's rule set as constraint texts and
// compiles it in-process, for the reference resolutions.
func ruleTexts(ds *datagen.Dataset) (rulesJSON, *conflictres.RuleSet, error) {
	rj := rulesJSON{Schema: ds.Schema.Names()}
	for _, c := range ds.Sigma {
		rj.Currency = append(rj.Currency, c.Format(ds.Schema))
	}
	for _, c := range ds.Gamma {
		rj.CFDs = append(rj.CFDs, c.Format(ds.Schema))
	}
	rs, err := conflictres.CompileRules(ds.Schema, rj.Currency, rj.CFDs)
	if err != nil {
		return rj, nil, fmt.Errorf("compile generated rules: %w", err)
	}
	return rj, rs, nil
}

// worldSeed fixes each generated dataset's rule set and the population of
// entities it describes; a run's --seed only draws which entities it sends.
// The generators derive the rules from their seed, and rule sets differ in
// cost, so seeding them per run would make runs of one workload measure
// different rule sets.
const worldSeed = 1

// sample draws n of the population's entities in an order fixed by seed.
func sample(seed int64, pop []*datagen.Entity, n int) ([]*datagen.Entity, error) {
	if n > len(pop) {
		return nil, fmt.Errorf("need %d entities, the population has %d", n, len(pop))
	}
	out := make([]*datagen.Entity, n)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(pop))[:n] {
		out[i] = pop[j]
	}
	return out, nil
}

// NBA workloads use players with about 54 rows each: the band keeps a run's
// draw of tiny and 136-row players from swinging its cost.
const (
	nbaMinRows = 40
	nbaMaxRows = 72
)

// nbaPlayers draws n players with [nbaMinRows, nbaMaxRows] rows from a
// population of 3n/2 such players of the fixed NBA world.
func nbaPlayers(seed int64, n int) (*datagen.Dataset, []*datagen.Entity, error) {
	want := n + n/2
	for players := 3 * want; ; players *= 2 {
		ds := datagen.NBA(datagen.NBAConfig{Players: players, Seed: worldSeed})
		var pop []*datagen.Entity
		for _, e := range ds.Entities {
			if k := e.Spec.TI.Inst.Len(); k >= nbaMinRows && k <= nbaMaxRows {
				pop = append(pop, e)
			}
		}
		if len(pop) >= want {
			ents, err := sample(seed, pop[:want], n)
			return ds, ents, err
		}
	}
}

// rowsOf returns an entity's tuples in instance order.
func rowsOf(e *datagen.Entity) []relation.Tuple {
	in := e.Spec.TI.Inst
	out := make([]relation.Tuple, 0, in.Len())
	for _, id := range in.TupleIDs() {
		out = append(out, in.Tuple(id))
	}
	return out
}

// wireRow converts a tuple to its JSON cells.
func wireRow(t relation.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = v.AsJSON()
	}
	return out
}

func wireRows(rows []relation.Tuple) [][]any {
	out := make([][]any, len(rows))
	for i, t := range rows {
		out[i] = wireRow(t)
	}
	return out
}

// instanceOf builds a fresh instance holding rows.
func instanceOf(sch *relation.Schema, rows []relation.Tuple) (*relation.Instance, error) {
	in := relation.NewInstance(sch)
	for _, t := range rows {
		if _, err := in.Add(t); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// outcomeJSON is the part of a resolution the server and the in-process
// reference must agree on, in wire form.
type outcomeJSON struct {
	Valid    bool           `json:"valid"`
	Resolved map[string]any `json:"resolved,omitempty"`
	Tuple    []any          `json:"tuple,omitempty"`
}

// errorJSON is the server's structured error envelope.
type errorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// resultLine is one result line of a batch or dataset stream.
type resultLine struct {
	outcomeJSON
	ID     string     `json:"id"`
	Index  *int       `json:"index"`
	Cached bool       `json:"cached"`
	Error  *errorJSON `json:"error"`
	// Summary is set on a dataset stream's trailing line only.
	Summary json.RawMessage `json:"summary"`
}

// referenceOutcome encodes an in-process result the way the server does.
func referenceOutcome(sch *relation.Schema, valid bool, resolved map[relation.Attr]relation.Value, tuple relation.Tuple) outcomeJSON {
	out := outcomeJSON{Valid: valid}
	if !valid {
		return out
	}
	out.Resolved = make(map[string]any, len(resolved))
	for a, v := range resolved {
		out.Resolved[sch.Name(a)] = v.AsJSON()
	}
	out.Tuple = wireRow(tuple)
	return out
}

// sameOutcome compares two outcomes after a JSON round trip, so numbers and
// nulls compare in one representation. Invalid outcomes carry no values.
func sameOutcome(a, b outcomeJSON) bool {
	if a.Valid != b.Valid {
		return false
	}
	if !a.Valid {
		return true
	}
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalize(v any) any {
	raw, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		return err.Error()
	}
	return out
}

// resolveReference resolves instances in-process with the library's batch
// API, encoded for comparison with server answers.
func resolveReference(rs *conflictres.RuleSet, ins []*relation.Instance) ([]outcomeJSON, error) {
	br, err := conflictres.ResolveBatch(rs, ins, conflictres.BatchOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]outcomeJSON, len(ins))
	for i, r := range br.Results {
		if br.Errs[i] != nil {
			return nil, fmt.Errorf("reference resolve of entity %d: %w", i, br.Errs[i])
		}
		out[i] = referenceOutcome(rs.Schema(), r.Valid, r.Resolved, r.Tuple)
	}
	return out, nil
}
