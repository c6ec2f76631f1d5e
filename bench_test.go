package omptune

// Campaign-side microbenchmarks that `make bench` runs beside the runtime's:
// the model sweep's sample throughput, the configuration-key cost behind
// it, and one report pass over the facade dataset with two of its layers
// alone: the frame and each influence heatmap. Tables and figures over
// the full campaign are timed end to end by the benchmark/ module's
// paper_pipeline workload.

import (
	"io"
	"testing"

	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// BenchmarkTableII_SweepThroughput measures raw sample-collection speed:
// one complete application setting (XSbench on Milan, sampled space) per
// iteration, reporting samples/op via custom metrics.
func BenchmarkTableII_SweepThroughput(b *testing.B) {
	b.ReportAllocs()
	samples := 0
	for i := 0; i < b.N; i++ {
		ds, err := Collect(CollectOptions{
			Arches: []Arch{Milan},
			Apps:   []string{"XSbench"},
			Fraction: map[Arch]float64{
				Milan: 0.1,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		samples += ds.Len()
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
}

// BenchmarkEnvConfigKey times building one configuration key — each
// machine's configuration table keys the study space once per process, and
// a search keys a lattice move only when the cache misses it or an observer
// watches the probe.
func BenchmarkEnvConfigKey(b *testing.B) {
	b.ReportAllocs()
	space := env.Space(topology.MustGet(topology.Milan))
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(space[i%len(space)].Key())
	}
	if n == 0 {
		b.Fatal("empty keys")
	}
}

// BenchmarkWriteReport times one WriteReport pass — its frame, every table,
// question and figure, the three influence fits — over the facade test
// dataset (24,497 samples, 4 applications).
func BenchmarkWriteReport(b *testing.B) {
	ds := facadeDS(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteReport(io.Discard, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewFrame times building the report's frame — its groups, runs,
// speedup and configuration-id columns and per-configuration value ids —
// over the facade test dataset.
func BenchmarkNewFrame(b *testing.B) {
	ds := facadeDS(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewFrame(ds)
	}
}

// BenchmarkInfluenceHeatmap times one influence heatmap of each grouping —
// its rows, design matrix and logistic fits — over a frame of the facade
// test dataset built once.
func BenchmarkInfluenceHeatmap(b *testing.B) {
	f := core.NewFrame(facadeDS(b))
	for _, g := range []struct {
		name string
		g    core.Grouping
	}{{"PerApp", core.PerApp}, {"PerArch", core.PerArch}, {"PerArchApp", core.PerArchApp}} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.InfluenceHeatmap(g.g, ml.LogisticOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
