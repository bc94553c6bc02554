// Package bench regenerates the paper's experimental study (Fan et al.,
// ICDE 2013, Section VI): every subfigure of Figure 8 plus the dataset
// statistics table and the headline aggregates. The cmd/crfigures binary and
// the repository's bench_test.go both drive these harnesses.
//
// Absolute times differ from the paper (different hardware, different SAT
// solver, a projection-deduplicating encoder); the reproduced artifacts are
// the shapes: which method wins, by what magnitude, and how curves move with
// entity size, interaction rounds and constraint counts. EXPERIMENTS.md
// records paper-reported versus measured values side by side.
package bench

import (
	"fmt"
	"io"
	"time"

	"conflictres/internal/core"
	"conflictres/internal/datagen"
	"conflictres/internal/encode"
	"conflictres/internal/metrics"
	"conflictres/internal/pick"
	"conflictres/internal/relation"
)

// Point is one x/y pair of a series; X is a label (bucket range, fraction).
type Point struct {
	X string
	Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced figure: the same series the paper plots.
type Figure struct {
	ID     string // e.g. "8(a)"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Fprint renders the figure as an aligned text table.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "  x = %s, y = %s\n", f.XLabel, f.YLabel)
	// Header row: x labels from the first series.
	if len(f.Series) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-24s", "")
	for _, p := range f.Series[0].Points {
		fmt.Fprintf(w, "%14s", p.X)
	}
	fmt.Fprintln(w)
	for _, s := range f.Series {
		fmt.Fprintf(w, "  %-24s", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(w, "%14.3f", p.Y)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// NBABuckets are the x-axis ranges of Figures 8(a)-(c) for NBA.
var NBABuckets = [][2]int{{1, 27}, {28, 54}, {55, 81}, {82, 108}, {109, 136}}

// PersonBuckets returns the x-axis ranges of Figures 8(a)/(b)/(d) for
// Person, scaled from the paper's [1,2000]..[8001,10000].
func PersonBuckets(maxSize int) [][2]int {
	step := maxSize / 5
	if step < 1 {
		step = 1
	}
	var out [][2]int
	lo := 1
	for i := 0; i < 5; i++ {
		hi := (i + 1) * step
		if i == 4 {
			hi = maxSize
		}
		out = append(out, [2]int{lo, hi})
		lo = hi + 1
	}
	return out
}

func bucketLabel(b [2]int) string { return fmt.Sprintf("[%d,%d]", b[0], b[1]) }

// DatasetsTable prints the Section VI dataset statistics.
func DatasetsTable(w io.Writer, dss ...*datagen.Dataset) {
	fmt.Fprintln(w, "Experimental data (Section VI):")
	for _, ds := range dss {
		fmt.Fprintf(w, "  %s\n", ds.Stats())
	}
	fmt.Fprintln(w)
}

// ValidityTiming reproduces Figure 8(a) for one dataset: average IsValid
// elapsed time per entity-size bucket.
func ValidityTiming(ds *datagen.Dataset, bounds [][2]int) Figure {
	fig := Figure{
		ID:     "8(a)",
		Title:  "Validity checking (" + ds.Name + ")",
		XLabel: "#-tuples per entity",
		YLabel: "elapsed time (ms)",
	}
	var s Series
	s.Label = fmt.Sprintf("%s (|Sigma|=%d, |Gamma|=%d)", ds.Name, len(ds.Sigma), len(ds.Gamma))
	for i, bucket := range ds.SizeBuckets(bounds) {
		var total time.Duration
		n := 0
		for _, e := range bucket {
			enc := encode.Build(e.Spec, encode.Options{})
			start := time.Now()
			core.IsValid(enc)
			total += time.Since(start)
			n++
		}
		s.Points = append(s.Points, Point{bucketLabel(bounds[i]), avgMillis(total, n)})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// DeduceTiming reproduces Figure 8(b): DeduceOrder vs NaiveDeduce average
// elapsed time per bucket. NaiveDeduce is skipped when withNaive is false
// (the paper omits it for Person, where it exceeds 20 minutes).
func DeduceTiming(ds *datagen.Dataset, bounds [][2]int, withNaive bool) Figure {
	fig := Figure{
		ID:     "8(b)",
		Title:  "Deducing true values (" + ds.Name + ")",
		XLabel: "#-tuples per entity",
		YLabel: "elapsed time (ms)",
	}
	fast := Series{Label: ds.Name + "-DeduceOrder"}
	slow := Series{Label: ds.Name + "-NaiveDeduce"}
	for i, bucket := range ds.SizeBuckets(bounds) {
		var tFast, tSlow time.Duration
		n := 0
		for _, e := range bucket {
			enc := encode.Build(e.Spec, encode.Options{})
			start := time.Now()
			core.DeduceOrder(enc)
			tFast += time.Since(start)
			if withNaive {
				start = time.Now()
				core.NaiveDeduce(enc)
				tSlow += time.Since(start)
			}
			n++
		}
		fast.Points = append(fast.Points, Point{bucketLabel(bounds[i]), avgMillis(tFast, n)})
		if withNaive {
			slow.Points = append(slow.Points, Point{bucketLabel(bounds[i]), avgMillis(tSlow, n)})
		}
	}
	fig.Series = append(fig.Series, fast)
	if withNaive {
		fig.Series = append(fig.Series, slow)
	}
	return fig
}

// OverallTiming reproduces Figures 8(c)/8(d): the full framework's elapsed
// time per bucket, broken into validity / deduce / suggest phases.
func OverallTiming(ds *datagen.Dataset, bounds [][2]int, figID string) Figure {
	fig := Figure{
		ID:     figID,
		Title:  ds.Name + ": overall time by phase",
		XLabel: "#-tuples per entity",
		YLabel: "elapsed time (ms)",
	}
	val := Series{Label: "Validity"}
	ded := Series{Label: "DeduceOrder"}
	sug := Series{Label: "Suggest"}
	for i, bucket := range ds.SizeBuckets(bounds) {
		var timing core.Timing
		n := 0
		for _, e := range bucket {
			out, err := core.Resolve(e.Spec, &core.SimulatedUser{Truth: e.Truth}, core.Options{})
			if err != nil {
				continue
			}
			timing.Add(out.Timing)
			n++
		}
		val.Points = append(val.Points, Point{bucketLabel(bounds[i]), avgMillis(timing.Validity, n)})
		ded.Points = append(ded.Points, Point{bucketLabel(bounds[i]), avgMillis(timing.Deduce, n)})
		sug.Points = append(sug.Points, Point{bucketLabel(bounds[i]), avgMillis(timing.Suggest, n)})
	}
	fig.Series = []Series{sug, ded, val}
	return fig
}

// UserConfig shapes the simulated user in accuracy experiments: how many
// suggested attributes it answers per round (the paper's users "do not have
// to enter values for all attributes in A", which is what spreads resolution
// over 2-3 rounds).
type UserConfig struct {
	MaxPerRound int
}

// InteractionCurve reproduces Figures 8(e)/(i)/(m): the fraction of true
// attribute values (among attributes needing resolution) found — deduced or
// user-validated — after k rounds of interaction.
func InteractionCurve(ds *datagen.Dataset, maxK int, figID string, user UserConfig) Figure {
	fig := Figure{
		ID:     figID,
		Title:  ds.Name + ": true values vs interaction rounds",
		XLabel: "#-interactions",
		YLabel: "% of true values",
	}
	s := Series{Label: "Sigma+Gamma"}
	counts, _ := perRoundCounts(ds, ds, maxK, user)
	for k := 0; k <= maxK; k++ {
		s.Points = append(s.Points, Point{fmt.Sprintf("%d", k), counts[k].Recall()})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// Mode selects which constraint sets an accuracy figure varies.
type Mode int

const (
	// ModeBoth varies |Sigma|+|Gamma| together — Figures 8(f)/(j)/(n).
	ModeBoth Mode = iota
	// ModeSigma varies |Sigma| with Gamma empty — Figures 8(g)/(k)/(o).
	ModeSigma
	// ModeGamma varies |Gamma| with Sigma empty — Figures 8(h)/(l)/(p).
	ModeGamma
)

func (m Mode) String() string {
	switch m {
	case ModeBoth:
		return "|Sigma|+|Gamma|"
	case ModeSigma:
		return "|Sigma| only"
	case ModeGamma:
		return "|Gamma| only"
	default:
		return "?"
	}
}

// Fractions is the x-axis of the accuracy figures.
var Fractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// AccuracyVsConstraints reproduces Figures 8(f)–8(h) (and their CAREER and
// Person counterparts): F-measure as a function of the fraction of
// constraints used, one curve per interaction count, plus the Pick baseline
// for ModeBoth. Following the paper's definitions, only *deduced* values
// count towards precision/recall — values the user typed in are excluded
// from the numerators (which is why even the top-right points stay below
// 1.0), while everything they enable downstream counts.
func AccuracyVsConstraints(ds *datagen.Dataset, mode Mode, maxK int, figID string, seed int64, user UserConfig) Figure {
	fig := Figure{
		ID:     figID,
		Title:  fmt.Sprintf("%s: F-measure varying %s", ds.Name, mode),
		XLabel: "fraction of constraints",
		YLabel: "F-measure",
	}
	curves := make([]Series, maxK+1)
	for k := range curves {
		curves[k].Label = fmt.Sprintf("%d-interaction", k)
	}
	pickSeries := Series{Label: "Pick"}

	for _, frac := range Fractions {
		var sub *datagen.Dataset
		switch mode {
		case ModeBoth:
			sub = ds.WithConstraintFraction(frac, frac, seed)
		case ModeSigma:
			sub = ds.WithConstraintFraction(frac, 0, seed)
		case ModeGamma:
			sub = ds.WithConstraintFraction(0, frac, seed)
		}
		_, deduced := perRoundCounts(sub, ds, maxK, user)
		x := fmt.Sprintf("%.1f", frac)
		for k := 0; k <= maxK; k++ {
			curves[k].Points = append(curves[k].Points, Point{x, deduced[k].F()})
		}
		if mode == ModeBoth {
			var pc metrics.Counts
			for _, e := range sub.Entities {
				got := pick.Pick(e.Spec, seed+int64(len(e.ID)))
				pc.Add(metrics.EvaluateTuple(e.Spec.TI.Inst, got, e.Truth))
			}
			pickSeries.Points = append(pickSeries.Points, Point{x, pc.F()})
		}
	}
	fig.Series = curves
	if mode == ModeBoth {
		fig.Series = append(fig.Series, pickSeries)
	}
	return fig
}

// perRoundCounts resolves every entity of sub with a simulated user and
// scores the per-round resolved sets against the ground truth of full.
// Index k aggregates the state after k interactions. The first result counts
// every resolved attribute (deduced or user-validated; Figures 8(e)/(i)/(m));
// the second counts deduced attributes only (the F-measure figures).
func perRoundCounts(sub, full *datagen.Dataset, maxK int, user UserConfig) (all, deduced []metrics.Counts) {
	all = make([]metrics.Counts, maxK+1)
	deduced = make([]metrics.Counts, maxK+1)
	for i, e := range sub.Entities {
		truth := full.Entities[i].Truth
		res, err := core.Resolve(e.Spec,
			&core.SimulatedUser{Truth: truth, MaxPerRound: user.MaxPerRound},
			core.Options{MaxRounds: maxK})
		if err != nil || !res.Valid {
			continue
		}
		for k := 0; k <= maxK; k++ {
			resolved, answered := stateAtRound(res, k)
			all[k].Add(metrics.Evaluate(e.Spec.TI.Inst, resolved, truth))
			deducedOnly := make(map[relation.Attr]relation.Value, len(resolved))
			for a, v := range resolved {
				if !answered[a] {
					deducedOnly[a] = v
				}
			}
			deduced[k].Add(metrics.Evaluate(e.Spec.TI.Inst, deducedOnly, truth))
		}
	}
	return all, deduced
}

// stateAtRound returns the resolved map and the cumulative user-answered set
// after k interactions, clamping to the final state when resolution finished
// earlier.
func stateAtRound(res *core.Outcome, k int) (map[relation.Attr]relation.Value, map[relation.Attr]bool) {
	if len(res.ResolvedPerRound) == 0 {
		return res.Resolved, nil
	}
	if k >= len(res.ResolvedPerRound) {
		k = len(res.ResolvedPerRound) - 1
	}
	return res.ResolvedPerRound[k], res.AnsweredPerRound[k]
}

// Headline aggregates the paper's summary claims from the ModeBoth /
// ModeSigma / ModeGamma figures of one dataset: the improvement of Sigma+
// Gamma over Pick and over the single-constraint-class variants, each at
// full constraint sets and maximum interactions.
func Headline(w io.Writer, name string, both, sigmaOnly, gammaOnly Figure) {
	full := func(f Figure, label string) float64 {
		for _, s := range f.Series {
			if s.Label == label && len(s.Points) > 0 {
				return s.Points[len(s.Points)-1].Y
			}
		}
		return 0
	}
	top := func(f Figure) float64 {
		best := 0.0
		for _, s := range f.Series {
			if s.Label == "Pick" || len(s.Points) == 0 {
				continue
			}
			if y := s.Points[len(s.Points)-1].Y; y > best {
				best = y
			}
		}
		return best
	}
	fBoth, fSigma, fGamma := top(both), top(sigmaOnly), top(gammaOnly)
	fPick := full(both, "Pick")
	fmt.Fprintf(w, "Headline (%s): F(Sigma+Gamma)=%.3f  F(Sigma)=%.3f  F(Gamma)=%.3f  F(Pick)=%.3f\n",
		name, fBoth, fSigma, fGamma, fPick)
	if fPick > 0 {
		fmt.Fprintf(w, "  vs Pick: %+.0f%%   vs Sigma-only: %+.0f%%   vs Gamma-only: %+.0f%%\n",
			100*(fBoth/fPick-1), 100*(fBoth/fSigma-1), 100*(fBoth/fGamma-1))
	}
	fmt.Fprintln(w)
}

func avgMillis(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Microseconds()) / 1000 / float64(n)
}

// FigureByID finds a figure by its paper number.
func FigureByID(figs []Figure, id string) *Figure {
	for i := range figs {
		if figs[i].ID == id {
			return &figs[i]
		}
	}
	return nil
}
