package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"conflictres"
	"conflictres/internal/live"
)

// liveDeltaJSON is one accepted delta in a row-log, in the same cell forms
// the /v1/entity wire uses.
type liveDeltaJSON struct {
	Rows    [][]json.RawMessage `json:"rows"`
	Sources []string            `json:"sources,omitempty"`
	Orders  []orderJSON         `json:"orders,omitempty"`
}

// liveSnapshotJSON is one NDJSON line of a snapshot — of live entities and
// of interactive sessions alike: the creation-time rule set and mode, then
// every accepted delta in arrival order. A session's key is its id, its
// first delta the created entity and every later delta an answer round;
// EntityID is the client's entity id it echoes. Replaying the deltas
// against a fresh entity under the same rules is deterministic, so restore
// reconstructs the exact state without serializing solver internals.
type liveSnapshotJSON struct {
	Key      string          `json:"key"`
	Rules    json.RawMessage `json:"rules"`
	Mode     string          `json:"mode,omitempty"`
	EntityID string          `json:"entityId,omitempty"`
	Deltas   []liveDeltaJSON `json:"deltas"`
}

// SnapshotLiveEntities serializes every live entity as one NDJSON line of
// replayable deltas — the rolling-restart path for the change-data-capture
// feed: drain, snapshot, restart, RestoreLiveEntities. Each line is written
// under its entity's lock, so a snapshot taken while upserts are in flight
// captures every entity at a delta boundary.
func (s *Server) SnapshotLiveEntities(w io.Writer) error {
	return writeSnapshot(s.liveReg, w)
}

// SnapshotSessions serializes every interactive session the same way, so a
// fleet can roll-restart a backend without dropping live conversations:
// drain, snapshot, restart, RestoreSessions. Like SnapshotLiveEntities it
// must run before Close (crserve calls both from Config.OnDrain), and each
// line is written at an answer boundary.
func (s *Server) SnapshotSessions(w io.Writer) error {
	return writeSnapshot(s.sessions.Registry, w)
}

func writeSnapshot(reg *live.Registry, w io.Writer) error {
	enc := json.NewEncoder(w)
	_, _, err := reg.Snapshot(func(el live.EntityLog) error {
		rec := liveSnapshotJSON{
			Key:      el.Key,
			Rules:    json.RawMessage(el.RulesWire),
			Mode:     el.Mode.Strategy.String(),
			EntityID: el.Label,
			Deltas:   make([]liveDeltaJSON, 0, len(el.Deltas)),
		}
		for _, d := range el.Deltas {
			dj := liveDeltaJSON{Sources: d.Sources}
			dj.Rows = make([][]json.RawMessage, 0, len(d.Rows))
			for _, row := range d.Rows {
				cells := make([]json.RawMessage, len(row))
				for i, v := range row {
					raw, err := json.Marshal(encodeValue(v))
					if err != nil {
						return fmt.Errorf("entity %s: encode cell: %w", el.Key, err)
					}
					cells[i] = raw
				}
				dj.Rows = append(dj.Rows, cells)
			}
			for _, o := range d.Orders {
				dj.Orders = append(dj.Orders, orderJSON{Attr: o.Attr, T1: o.T1, T2: o.T2})
			}
			rec.Deltas = append(rec.Deltas, dj)
		}
		return enc.Encode(&rec)
	})
	return err
}

// RestoreLiveEntities rebuilds live entities from a SnapshotLiveEntities
// stream, replaying each entity's deltas under its original key. It returns
// how many entities were restored; an entity whose replay no longer applies
// cleanly (e.g. a truncated snapshot line) is dropped and counted in the
// returned error, not fatal to the rest. TTL clocks restart at the restore.
func (s *Server) RestoreLiveEntities(r io.Reader) (int, error) {
	restored, skipped, err := s.readSnapshot(r, "entities", func(rec *liveSnapshotJSON) error {
		if err := s.replayLiveEntity(rec); err != nil {
			// Drop any partially replayed state: a half-restored entity
			// would serve answers missing acknowledged rows.
			s.liveReg.Remove(rec.Key)
			return err
		}
		return nil
	})
	s.met.liveRestored.Add(int64(restored))
	s.met.liveRestoreSkipped.Add(int64(skipped))
	return restored, err
}

// RestoreSessions rebuilds interactive sessions from a SnapshotSessions
// stream, registering each under its original id so clients keep their
// handles across the restart. A record that does not replay cleanly — a
// truncated line, or a line in any other format — is skipped and counted
// in the returned error, not fatal to the rest. TTL clocks restart at the
// restore.
func (s *Server) RestoreSessions(r io.Reader) (int, error) {
	restored, _, err := s.readSnapshot(r, "sessions", s.replaySession)
	return restored, err
}

// readSnapshot feeds each NDJSON record of a snapshot to replay and counts
// the outcomes; noun names what the records hold in the error.
func (s *Server) readSnapshot(r io.Reader, noun string, replay func(*liveSnapshotJSON) error) (restored, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), int(s.cfg.MaxBodyBytes))
	var firstErr error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec liveSnapshotJSON
		err := json.Unmarshal(line, &rec)
		switch {
		case err != nil:
			err = fmt.Errorf("bad snapshot line: %w", err)
		case rec.Key == "" || len(rec.Deltas) == 0:
			err = fmt.Errorf("bad snapshot line: no key or no deltas")
		default:
			if err = replay(&rec); err != nil {
				err = fmt.Errorf("%s: %w", rec.Key, err)
			}
		}
		if err != nil {
			skipped++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		restored++
	}
	if err := sc.Err(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return restored, skipped, fmt.Errorf("server: restore: %d %s skipped: %w", skipped, noun, firstErr)
	}
	return restored, skipped, nil
}

// snapshotBinding compiles a record's rule set and parses its mode; it also
// returns the rule set's rulesKey.
func (s *Server) snapshotBinding(rec *liveSnapshotJSON) (*conflictres.RuleSet, cacheKey, conflictres.ResolutionMode, error) {
	var rsj ruleSetJSON
	if err := json.Unmarshal(rec.Rules, &rsj); err != nil {
		return nil, cacheKey{}, conflictres.ResolutionMode{}, fmt.Errorf("rules: %w", err)
	}
	rules, rk, err := s.compileRules(&rsj)
	if err != nil {
		return nil, rk, conflictres.ResolutionMode{}, err
	}
	strat, err := conflictres.ParseStrategy(rec.Mode)
	return rules, rk, conflictres.ResolutionMode{Strategy: strat}, err
}

// replayLiveEntity feeds one snapshot record's deltas through the registry
// in order, exactly as the original upserts arrived.
func (s *Server) replayLiveEntity(rec *liveSnapshotJSON) error {
	rules, rk, mode, err := s.snapshotBinding(rec)
	if err != nil {
		return err
	}
	rulesHash := string(rk[:]) + "\x00" + mode.Strategy.String()
	for i, d := range rec.Deltas {
		rows, err := decodeRows(rules, d.Rows)
		if err != nil {
			return fmt.Errorf("delta %d: %w", i, err)
		}
		if _, err := s.liveReg.Upsert(rec.Key, rules, rulesHash, live.Op{
			Rows: rows, Sources: d.Sources, Orders: liveOrders(d.Orders), Mode: mode, RulesWire: rec.Rules,
		}); err != nil {
			return fmt.Errorf("delta %d: %w", i, err)
		}
	}
	return nil
}

// replaySession rebuilds one interactive session: the first delta opens
// it, and every later delta is an answer round, re-applied through
// LiveSession.Apply with the answers read back off the round's user tuple
// (the attributes its orders name) — so the interaction count and the
// contradiction check come back exactly as they were.
func (s *Server) replaySession(rec *liveSnapshotJSON) error {
	rules, _, mode, err := s.snapshotBinding(rec)
	if err != nil {
		return err
	}
	first := rec.Deltas[0]
	rows, err := decodeRows(rules, first.Rows)
	if err != nil {
		return err
	}
	ls, err := rules.NewLiveSessionMode(rows, first.Sources, liveOrders(first.Orders), mode)
	if err != nil {
		return err
	}
	for i, d := range rec.Deltas[1:] {
		answers, err := answersOf(rules, &d)
		if err == nil {
			err = ls.Apply(answers)
		}
		if err != nil {
			ls.Close()
			return fmt.Errorf("answer round %d: %w", i+1, err)
		}
	}
	return s.sessions.Add(rec.Key, rules, ls, live.Op{Mode: mode, RulesWire: rec.Rules, Label: rec.EntityID})
}

// answersOf reads an answer round back off its delta: the user tuple's
// values in the attributes its orders name.
func answersOf(rules *conflictres.RuleSet, d *liveDeltaJSON) (map[string]conflictres.Value, error) {
	rows, err := decodeRows(rules, d.Rows)
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 {
		return nil, fmt.Errorf("%d rows, want the one user tuple", len(rows))
	}
	sch := rules.Schema()
	answers := make(map[string]conflictres.Value)
	for _, o := range d.Orders {
		a, ok := sch.Attr(o.Attr)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q", o.Attr)
		}
		answers[o.Attr] = rows[0][a]
	}
	return answers, nil
}

// liveOrders converts wire orders to the facade form.
func liveOrders(in []orderJSON) []conflictres.LiveOrder {
	out := make([]conflictres.LiveOrder, 0, len(in))
	for _, o := range in {
		out = append(out, conflictres.LiveOrder{Attr: o.Attr, T1: o.T1, T2: o.T2})
	}
	return out
}
