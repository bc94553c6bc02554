package core

import (
	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/sat"
)

// Pipeline bundles the reusable per-worker resources of cross-entity
// resolution: one encoding skeleton pre-compiled from a rule set and one
// arena-backed SAT solver. A session created through a pipeline builds its
// encoding against the skeleton (reusing the retained encoding's storage)
// and Resets the pipeline's solver instead of allocating a fresh one, so a
// worker resolving thousands of entities under one rule set pays the
// allocation cost once.
//
// A Pipeline is not safe for concurrent use and serves one session at a
// time: creating the next session (or rebuilding inside the current one)
// invalidates the previous session's encoding and solver state. The batch,
// dataset and server layers hold pipelines in per-rule-set pools and check
// one out per worker or per entity.
type Pipeline struct {
	skel   *encode.Skeleton
	solver *sat.Solver
}

// NewPipeline starts a pipeline on a compiled rule set, which it shares
// read-only with every other pipeline of that rule set.
func NewPipeline(rules *encode.Rules) *Pipeline {
	return &Pipeline{skel: rules.NewSkeleton(), solver: sat.New()}
}

// NewSession starts an incremental resolution session for one entity on the
// pipeline's pooled resources. The previous session served by this pipeline
// must be finished with.
func (p *Pipeline) NewSession(spec *model.Spec) *Session {
	s := &Session{opts: p.skel.Options(), pipe: p}
	s.install(s.buildEncoding(spec))
	return s
}

// Rules returns the compiled rule set the pipeline builds with.
func (p *Pipeline) Rules() *encode.Rules { return p.skel.Rules() }

// SkeletonStats reports the pipeline's skeleton build counters: total
// builds and how many reused the retained encoding's storage.
func (p *Pipeline) SkeletonStats() (builds, reuses int) { return p.skel.Stats() }
