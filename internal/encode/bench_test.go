package encode

import (
	"testing"

	"conflictres/internal/model"
	"conflictres/internal/sat"
)

// BenchmarkSkeletonBuild measures the two dominant costs of pooled
// resolution on the golden-digest inputs: encoding an entity through a warm
// skeleton (person, nba) and attaching the resulting CNF to a reused solver
// (load/person, load/nba). Entities rotate, so one op is one entity. The
// encode series also report, averaged over one pass of the entity set (so
// they do not depend on b.N), the clauses per entity and how many Σ
// constraints the guard index let each build instantiate.
func BenchmarkSkeletonBuild(b *testing.B) {
	sets := []struct {
		name  string
		specs []*model.Spec
	}{{"person", goldenPerson(6)}, {"nba", goldenNBA()}}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			k := NewSkeleton(set.specs[0].Sigma, set.specs[0].Gamma, Options{})
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				k.Build(set.specs[i%len(set.specs)])
			}
			clauses, visited := 0, 0
			for _, spec := range set.specs {
				e := k.Build(spec)
				clauses += len(e.CNF().Clauses)
				visited += e.sigmaVisited
			}
			n := float64(len(set.specs))
			b.ReportMetric(float64(clauses)/n, "clauses/op")
			b.ReportMetric(float64(visited)/n, "sigma_visited/op")
		})
	}
	b.Run("load", func(b *testing.B) {
		for _, set := range sets {
			b.Run(set.name, func(b *testing.B) {
				cnfs := make([]*sat.CNF, len(set.specs))
				for i, spec := range set.specs {
					cnfs[i] = Build(spec, Options{}).CNF()
				}
				s := sat.New()
				clauses := 0
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					cnf := cnfs[i%len(cnfs)]
					s.Reset()
					cnf.AppendInto(s, 0)
					clauses += len(cnf.Clauses)
				}
				b.ReportMetric(float64(clauses)/float64(b.N), "clauses/op")
			})
		}
	})
}
