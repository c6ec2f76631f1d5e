package core

import (
	"context"
	"fmt"
	"sort"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/sim"
	"omptune/internal/topology"

	"omptune/internal/apps"
)

// This file implements the paper's §VI future-work agenda: non-linear
// models for the classification surrogate, a quantitative check of how
// (badly) tuning knowledge transfers to unseen architectures, a random-
// search baseline for the guided tuner, and the sweep extensions the paper
// deferred (numa_domains places, more thread counts).

// ModelComparison contrasts the linear surrogate of §IV-D with a random
// forest on the same group of samples.
type ModelComparison struct {
	Group       string
	Samples     int
	LogisticAcc float64
	ForestAcc   float64
	// MajorityAcc is the trivial always-predict-the-majority baseline.
	MajorityAcc float64
}

// CompareModels fits both model families per group of the given grouping
// strategy and reports their training accuracies next to the majority
// baseline — quantifying how much the linear restriction costs (§VI).
func CompareModels(ds *dataset.Dataset, g Grouping, logOpt ml.LogisticOptions, treeOpt ml.TreeOptions, nTrees int) ([]ModelComparison, error) {
	f := NewFrame(ds)
	labels, sels := f.rows(g)
	var out []ModelComparison
	for i, label := range labels {
		x, y := f.design(sels[i], g)
		mc := ModelComparison{Group: label, Samples: len(x), MajorityAcc: majorityAccuracy(y)}
		if hasBothClasses(y) {
			lm, err := ml.FitLogistic(x, y, logOpt)
			if err != nil {
				return nil, fmt.Errorf("core: %s logistic: %w", label, err)
			}
			mc.LogisticAcc = lm.Accuracy(x, y)
			fm, err := ml.FitForest(x, y, nTrees, treeOpt)
			if err != nil {
				return nil, fmt.Errorf("core: %s forest: %w", label, err)
			}
			mc.ForestAcc = fm.Accuracy(x, y)
		} else {
			mc.LogisticAcc, mc.ForestAcc = 1, 1
		}
		out = append(out, mc)
	}
	return out, nil
}

func majorityAccuracy(y []bool) float64 {
	if len(y) == 0 {
		return 0
	}
	pos := 0
	for _, v := range y {
		if v {
			pos++
		}
	}
	if pos*2 < len(y) {
		pos = len(y) - pos
	}
	return float64(pos) / float64(len(y))
}

// TransferRow reports how well a model trained on two architectures
// predicts optimality on the held-out third, for one application.
type TransferRow struct {
	App      string
	HeldOut  topology.Arch
	Accuracy float64
	Majority float64
	// Transfers is the paper-style verdict: does the cross-architecture
	// model beat the trivial baseline by a meaningful margin?
	Transfers bool
}

// Transfer performs leave-one-architecture-out evaluation for one
// application, quantifying §VI's caveat that "there is no guarantee this
// knowledge can be transferred" to unseen architectures. Features exclude
// the architecture code (the held-out value would be unseen); the forest
// model is used since it dominates the linear one in-sample.
func Transfer(ds *dataset.Dataset, app string, treeOpt ml.TreeOptions, nTrees int) ([]TransferRow, error) {
	f := NewFrame(ds)
	var rows []TransferRow
	for _, held := range topology.Arches() {
		test := f.where(ofAppOnArch(app, held))
		if test.len() == 0 {
			continue
		}
		train := f.where(func(g *dataset.Group) bool { return g.App == app && g.Arch != held })
		if train.len() == 0 {
			continue
		}
		// PerArchApp's columns are the base features alone: no architecture
		// code, whose held-out value the model would never have seen.
		xTr, yTr := f.design(train, PerArchApp)
		xTe, yTe := f.design(test, PerArchApp)
		row := TransferRow{App: app, HeldOut: held, Majority: majorityAccuracy(yTe)}
		if hasBothClasses(yTr) {
			fm, err := ml.FitForest(xTr, yTr, nTrees, treeOpt)
			if err != nil {
				return nil, err
			}
			row.Accuracy = fm.Accuracy(xTe, yTe)
		} else {
			row.Accuracy = majorityAccuracy(yTe)
		}
		row.Transfers = row.Accuracy > row.Majority+0.05
		rows = append(rows, row)
	}
	return rows, nil
}

// RandomSearch is the baseline the guided tuner is judged against: sample
// `budget` configurations uniformly (deterministically seeded) and keep the
// best. The ev backend decides what an evaluation measures (nil = analytic
// model).
//
// RandomSearch is a convenience wrapper over the "random" strategy of the
// Searcher seam (see search.go); the seeded draw sequence and the results
// are identical to the pre-seam implementation under the analytic backend.
func RandomSearch(ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting, budget int, seedVal uint64) SearchResult {
	res, _ := randomSearcher{}.Search(context.Background(), SearchSpec{
		Machine: m, App: app, Setting: set, Seed: seedVal,
		Evaluator: ev, Budget: SearchBudget{MaxEvals: budget},
	})
	return res
}

// ExtendedSpace enumerates the sweep space including the numa_domains
// place kind the paper deferred for lack of hwloc (§III-1); the topology
// models make it available here.
func ExtendedSpace(m *topology.Machine) []env.Config {
	base := env.Space(m)
	var out []env.Config
	out = append(out, base...)
	for _, c := range base {
		if c.Places == topology.PlaceUnset {
			nc := c
			nc.Places = topology.PlaceNUMA
			out = append(out, nc)
		}
	}
	return out
}

// NestedSpace enumerates the sweep space extended along the nesting axis —
// the tunable dimension this repo adds beyond the paper's seven variables.
// Every configuration that is otherwise at default places, binding,
// reduction and alignment gains one variant per (non-flat OMP_NUM_THREADS
// list × OMP_MAX_ACTIVE_LEVELS × OMP_THREAD_LIMIT) combination; restricting
// the nested variants to those configurations keeps the space bounded while
// still crossing nesting with the schedule and wait-policy knobs it
// actually interacts with.
func NestedSpace(m *topology.Machine) []env.Config {
	base := env.Space(m)
	return append(append([]env.Config(nil), base...), nestedVariants(m)...)
}

// nestedVariants generates the nesting-axis configurations NestedSpace (and
// a Nested sweep) appends to a base space.
func nestedVariants(m *topology.Machine) []env.Config {
	def := env.Default(m)
	var out []env.Config
	for _, c := range env.Space(m) {
		if c.Places != def.Places || c.ProcBind != def.ProcBind ||
			c.ForceReduction != def.ForceReduction || c.AlignAlloc != def.AlignAlloc {
			continue
		}
		for _, list := range env.NumThreadsLists(m)[1:] { // skip the flat entry
			for _, mal := range env.MaxActiveLevelsValues() {
				for _, tl := range env.ThreadLimits(m) {
					nc := c
					nc.NumThreadsList = list
					nc.MaxActiveLevels = mal
					nc.ThreadLimit = tl
					out = append(out, nc)
				}
			}
		}
	}
	return out
}

// ExtendedThreadSettings widens the thread-count exploration the paper
// lists as a limitation (§VI): an eighth, quarter, three-eighths, half,
// three-quarters and all of the machine.
func ExtendedThreadSettings(m *topology.Machine) []sim.Setting {
	fracs := []int{8, 4} // denominators for the small counts
	var out []sim.Setting
	for _, d := range fracs {
		t := m.Cores / d
		out = append(out, sim.Setting{Label: fmt.Sprintf("t%d", t), Threads: t, Scale: 1})
	}
	for _, t := range []int{3 * m.Cores / 8, m.Cores / 2, 3 * m.Cores / 4, m.Cores} {
		out = append(out, sim.Setting{Label: fmt.Sprintf("t%d", t), Threads: t, Scale: 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Threads < out[j].Threads })
	return out
}

// BestNUMAPlacement evaluates the extended numa_domains configurations for
// one app/arch/setting and reports the best speedup over the default —
// the experiment the paper left for future work. The ev backend decides
// what an evaluation measures (nil = analytic model).
func BestNUMAPlacement(ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting) (env.Config, float64) {
	ev = orModel(ev)
	measure := func(cfg env.Config) float64 {
		sec, err := meanRuntime(ev, m, app, cfg, cfg.Key(), set)
		if err != nil {
			reportSkipped(err) // sec is NaN: never the best
		}
		return sec
	}
	def := measure(env.Default(m))
	best := env.Default(m)
	bestT := def
	for _, c := range ExtendedSpace(m) {
		if c.Places != topology.PlaceNUMA {
			continue
		}
		if t := measure(c); t < bestT {
			best, bestT = c, t
		}
	}
	return best, def / bestT
}
