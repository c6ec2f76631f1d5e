package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/stats"
	"omptune/internal/topology"

	"omptune/internal/apps"
)

// Calibration quantifies how faithfully one measurement backend tracks
// another — in practice, how well the analytic model's rankings agree with
// real kernel execution. Two views are reported:
//
//   - per application: both backends evaluate a deterministically sampled
//     subspace of configurations (the default always included) and the
//     Spearman rank correlation over configurations says whether the
//     backends order candidate environments the same way. That ordering is
//     exactly what the tuner and the optimality labels consume, so rank
//     agreement — not absolute agreement — is the figure of merit.
//   - per variable: one-at-a-time deviations from the default, pooled
//     across the applications, isolating which runtime knobs the backends
//     disagree about.
//
// Absolute runtimes are incomparable across backends (the model's scale is
// the study system's, a measured run's is this host's), so relative error
// is computed on runtimes normalized by each backend's own default-config
// mean — i.e. in speedup-over-default units, which are scale-free.

// CalibrationOptions controls the calibration subspace.
type CalibrationOptions struct {
	// Arch selects the machine model; empty means A64FX.
	Arch topology.Arch
	// Apps restricts the applications; nil means every app on the arch.
	Apps []string
	// ConfigsPerApp bounds the per-app subspace (default included); <= 0
	// means 24.
	ConfigsPerApp int
	// Seed varies which configurations the deterministic sampler picks.
	Seed uint64
}

// AppCalibration is the per-application agreement row.
type AppCalibration struct {
	App     string
	Setting string
	Configs int
	// Spearman is the rank correlation between the two backends' mean
	// runtimes over the subspace (1 = identical ordering).
	Spearman float64
	// MedianRelErr is the median |alt−ref|/ref of runtimes normalized by
	// each backend's default-config mean.
	MedianRelErr float64
}

// VariableCalibration is the per-variable agreement row, pooled across apps.
type VariableCalibration struct {
	Variable     env.VarName
	Points       int
	Spearman     float64
	MedianRelErr float64
}

// CalibrationReport is the model-vs-measured comparison over a subspace.
type CalibrationReport struct {
	Reference string // backend whose ordering is the yardstick
	Alternate string // backend being judged against it
	Arch      topology.Arch
	Apps      []AppCalibration
	Variables []VariableCalibration
}

// Calibrate evaluates the same configuration subspace under both backends
// and reports their agreement. ref is the yardstick (nil = analytic model);
// alt is the backend being judged (typically the measured one).
func Calibrate(ref, alt Evaluator, opt CalibrationOptions) (*CalibrationReport, error) {
	ref, alt = orModel(ref), orModel(alt)
	arch := opt.Arch
	if arch == "" {
		arch = topology.A64FX
	}
	m, err := topology.Get(arch)
	if err != nil {
		return nil, err
	}
	appList, err := selectApps(arch, opt.Apps)
	if err != nil {
		return nil, err
	}
	if len(appList) == 0 {
		return nil, fmt.Errorf("core: no applications to calibrate on %s", arch)
	}
	perApp := opt.ConfigsPerApp
	if perApp <= 0 {
		perApp = 24
	}

	table := machineTable(m)
	def := table.defCfg
	rep := &CalibrationReport{Reference: ref.Name(), Alternate: alt.Name(), Arch: arch}

	// Per-variable accumulators: normalized runtimes of every one-at-a-time
	// deviation, pooled across apps.
	varRef := map[env.VarName][]float64{}
	varAlt := map[env.VarName][]float64{}

	// Backends are stateless, and the default is asked for twice per app (as
	// the normalizer and as the subspace's first member) while a one-at-a-time
	// deviation may also sit in the sampled subspace: a memo keeps that to one
	// series per configuration. Each backend gets its own, since the two may
	// share a name (two measured option sets) and a cache tells problems
	// apart by the backend's name.
	refMemo, altMemo := NewEvalCache(), NewEvalCache()
	for _, app := range appList {
		set := calibrationSetting(app, m)
		cfgs := calibrationSubspace(app.Name, arch, set.Label, table, perApp, opt.Seed)
		refProb := refMemo.bindProblem(ref, m, app, set)
		altProb := altMemo.bindProblem(alt, m, app, set)
		// A failed series fails the calibration, which has no use for a
		// partial pairing; nothing is measured after the first failure.
		var failed error
		mean := func(p *boundProblem, cfg env.Config) float64 {
			if failed != nil {
				return math.NaN()
			}
			sec, _, _, err := p.mean(&cfg, p.pos(&cfg), "", 0)
			failed = err
			return sec
		}
		refDef := mean(&refProb, def)
		altDef := mean(&altProb, def)
		if failed == nil && (refDef <= 0 || altDef <= 0) {
			failed = fmt.Errorf("non-positive default runtime for %s on %s", app.Name, arch)
		}
		refN := make([]float64, len(cfgs))
		altN := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			refN[i] = mean(&refProb, cfg) / refDef
			altN[i] = mean(&altProb, cfg) / altDef
		}
		rep.Apps = append(rep.Apps, AppCalibration{
			App: app.Name, Setting: set.Label, Configs: len(cfgs),
			Spearman:     stats.Spearman(refN, altN),
			MedianRelErr: medianRelErr(refN, altN),
		})

		for _, v := range env.Names() {
			for _, val := range env.Values(m, v) {
				if def.Value(v) == val {
					continue
				}
				cand, err := def.Set(v, val)
				if err != nil || cand.Validate(m) != nil {
					continue
				}
				varRef[v] = append(varRef[v], mean(&refProb, cand)/refDef)
				varAlt[v] = append(varAlt[v], mean(&altProb, cand)/altDef)
			}
		}
		if failed != nil {
			return nil, fmt.Errorf("core: calibrate: %w", failed)
		}
	}

	for _, v := range env.Names() {
		if len(varRef[v]) == 0 {
			continue
		}
		rep.Variables = append(rep.Variables, VariableCalibration{
			Variable: v, Points: len(varRef[v]),
			Spearman:     stats.Spearman(varRef[v], varAlt[v]),
			MedianRelErr: medianRelErr(varRef[v], varAlt[v]),
		})
	}
	return rep, nil
}

// calibrationSetting picks the cheapest setting of an app — smallest thread
// count, smallest scale — so the measured backend's wall-clock cost stays
// proportional to the subspace, not the campaign.
func calibrationSetting(app *apps.App, m *topology.Machine) sim.Setting {
	sets := app.Settings(m)
	best := sets[0]
	for _, s := range sets[1:] {
		if s.Threads < best.Threads || (s.Threads == best.Threads && s.Scale < best.Scale) {
			best = s
		}
	}
	return best
}

// calibrationSubspace deterministically ranks the non-default configurations
// by hash and keeps the n−1 lowest, with the default always first. The hash
// keying mirrors the sweep's sampling rule (keepHash) so different apps
// exercise different corners of the space.
func calibrationSubspace(appName string, arch topology.Arch, setting string, t *configTable, n int, seed uint64) []env.Config {
	type ranked struct {
		h   uint64
		cfg env.Config
	}
	var rs []ranked
	for i, cfg := range t.space {
		if cfg == t.defCfg {
			continue
		}
		h := hash64(fmt.Sprintf("cal|%d|%s|%s|%s|%s", seed, appName, arch, setting, t.keys[i]))
		rs = append(rs, ranked{h, cfg})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].h < rs[j].h })
	out := []env.Config{t.defCfg}
	for _, r := range rs {
		if len(out) >= n {
			break
		}
		out = append(out, r.cfg)
	}
	return out
}

// medianRelErr is the median |b−a|/a over paired normalized runtimes.
func medianRelErr(a, b []float64) float64 {
	if len(a) == 0 {
		return math.NaN()
	}
	errs := make([]float64, len(a))
	for i := range a {
		errs[i] = math.Abs(b[i]-a[i]) / a[i]
	}
	return stats.Median(errs)
}

// String renders the report as the two aligned tables the ompanalyze
// -calibrate command prints.
func (r *CalibrationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration on %s: %s (reference) vs %s\n\n", r.Arch, r.Reference, r.Alternate)
	fmt.Fprintf(&b, "%-14s %-10s %8s %10s %13s\n", "app", "setting", "configs", "spearman", "med.rel.err")
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "%-14s %-10s %8d %10.3f %12.1f%%\n", a.App, a.Setting, a.Configs, a.Spearman, 100*a.MedianRelErr)
	}
	fmt.Fprintf(&b, "\n%-18s %8s %10s %13s\n", "variable", "points", "spearman", "med.rel.err")
	for _, v := range r.Variables {
		fmt.Fprintf(&b, "%-18s %8d %10.3f %12.1f%%\n", v.Variable, v.Points, v.Spearman, 100*v.MedianRelErr)
	}
	return b.String()
}
