package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"testing"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// wireOutcome renders the user-visible outcome of one path — validity, the
// resolved values and the resolved tuple — as canonical JSON.
func wireOutcome(t *testing.T, valid bool, resolved map[string]any, tuple []any) string {
	t.Helper()
	if !valid {
		return "invalid"
	}
	b, err := json.Marshal(struct {
		Resolved map[string]any
		Tuple    []any
	}{resolved, tuple})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// resultOutcome is wireOutcome for an in-process Result.
func resultOutcome(t *testing.T, sch *conflictres.Schema, res *conflictres.Result) string {
	t.Helper()
	resolved := make(map[string]any, len(res.Resolved))
	for a, v := range res.Resolved {
		resolved[sch.Name(a)] = encodeValue(v)
	}
	var tuple []any
	for _, v := range res.Tuple {
		tuple = append(tuple, encodeValue(v))
	}
	return wireOutcome(t, res.Valid, resolved, tuple)
}

// TestSessionCrossPathDifferential drives each entity through one scripted
// conversation on the four interactive paths — the one-call Resolve loop
// with a scripted oracle, the facade Session, the HTTP /v1/session endpoints,
// and a live entity fed the equivalent row deltas over /v1/entity — and
// requires the same Valid, Resolved and Tuple from all four. The answer
// rounds are the ones Resolve's oracle gave; the other paths replay them.
func TestSessionCrossPathDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	ds := datagen.Person(datagen.PersonConfig{Entities: 12, MinTuples: 2, MaxTuples: 6, Seed: 11})
	sch := ds.Schema
	var sigma, gamma []string
	for _, c := range ds.Sigma {
		sigma = append(sigma, c.Format(sch))
	}
	for _, c := range ds.Gamma {
		gamma = append(gamma, c.Format(sch))
	}
	rules, err := conflictres.CompileRules(sch, sigma, gamma)
	if err != nil {
		t.Fatal(err)
	}
	bind := func(spec *model.Spec) *conflictres.Spec {
		out, err := conflictres.NewSpecFromRules(spec.TI.Inst.Clone(), rules)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range spec.TI.Edges {
			if err := out.AddOrder(sch.Name(e.Attr), e.T1, e.T2); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	interactive := 0
	for _, ent := range ds.Entities {
		// Path 1: Resolve, recording the rounds its oracle answers. The
		// loop drops answers that repeat resolved values from the returned
		// map in place, so the recorded maps are what it applied.
		var rounds []map[relation.Attr]relation.Value
		user := &conflictres.SimulatedUser{Truth: ent.Truth, MaxPerRound: 1}
		oracle := conflictres.OracleFunc(func(s conflictres.Suggestion) map[relation.Attr]relation.Value {
			ans := user.Answer(s)
			rounds = append(rounds, ans)
			return ans
		})
		res, err := rules.Resolve(bind(ent.Spec), oracle)
		if err != nil {
			t.Fatal(err)
		}
		rounds = slices.DeleteFunc(rounds, func(m map[relation.Attr]relation.Value) bool { return len(m) == 0 })
		if len(rounds) != res.Interactions {
			t.Fatalf("%s: %d recorded rounds, Resolve reports %d interactions", ent.ID, len(rounds), res.Interactions)
		}
		want := resultOutcome(t, sch, res)
		interactive += len(rounds)

		// Path 2: the facade Session on the rule set's pooled pipeline.
		sess, err := conflictres.NewSession(bind(ent.Spec))
		if err != nil {
			t.Fatal(err)
		}
		for i, round := range rounds {
			named := make(map[string]conflictres.Value, len(round))
			for a, v := range round {
				named[sch.Name(a)] = v
			}
			if err := sess.Apply(named); err != nil {
				t.Fatalf("%s: facade round %d: %v", ent.ID, i, err)
			}
		}
		if got := resultOutcome(t, sch, sess.Result()); got != want {
			t.Fatalf("%s: facade Session\n got %s\nwant %s", ent.ID, got, want)
		}
		sess.Close()

		// Path 3: HTTP /v1/session.
		state, resp := createSession(t, ts.URL, wireFromSpec(t, ent.Spec, ent.ID))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: create status %d", ent.ID, resp.StatusCode)
		}
		for i, round := range rounds {
			answers := make(map[string]any, len(round))
			for a, v := range round {
				answers[sch.Name(a)] = encodeValue(v)
			}
			var data []byte
			state, resp, data = postAnswer(t, ts.URL, state.Session, answers)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP round %d: status %d %s", ent.ID, i, resp.StatusCode, data)
			}
		}
		if got := wireOutcome(t, state.Valid, state.Resolved, state.Tuple); got != want {
			t.Fatalf("%s: HTTP session\n got %s\nwant %s", ent.ID, got, want)
		}

		// Path 4: a live entity fed the rows, then one delta per round: the
		// user tuple and an order from every earlier row to it in each
		// answered attribute — the Se ⊕ Ot step as a row delta.
		key := "cross-" + ent.ID
		var orders []map[string]any
		for _, e := range ent.Spec.TI.Edges {
			orders = append(orders, map[string]any{"attr": sch.Name(e.Attr), "t1": int(e.T1), "t2": int(e.T2)})
		}
		ids := make([]int, ent.Spec.TI.Inst.Len())
		for i := range ids {
			ids[i] = i
		}
		st, resp := entityUpsert(t, ts, key, entityWire(t, ent.Spec, ids, orders))
		cur := ent.Spec
		for i, round := range rounds {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: entity delta %d: status %d", ent.ID, i, resp.StatusCode)
			}
			n := cur.TI.Inst.Len()
			cur = cur.Extend(round)
			orders = nil
			for _, a := range slices.Sorted(maps.Keys(round)) {
				for t1 := 0; t1 < n; t1++ {
					orders = append(orders, map[string]any{"attr": sch.Name(a), "t1": t1, "t2": n})
				}
			}
			st, resp = entityUpsert(t, ts, key, entityWire(t, cur, []int{n}, orders))
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: last entity delta: status %d", ent.ID, resp.StatusCode)
		}
		if got := wireOutcome(t, st.Valid, st.Resolved, st.Tuple); got != want {
			t.Fatalf("%s: live entity\n got %s\nwant %s", ent.ID, got, want)
		}
	}
	if interactive == 0 {
		t.Fatal("no entity needed an answer round; the comparison is vacuous")
	}
	t.Logf("%d entities, %d answer rounds on four paths", len(ds.Entities), interactive)
}
