package omptune

// Campaign-side microbenchmarks that `make bench` runs beside the runtime's:
// the model sweep's sample throughput and the configuration-key cost behind
// it. Tables and figures are timed end to end by the benchmark/ module's
// paper_pipeline workload.

import (
	"testing"

	"omptune/internal/env"
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
// machine's configuration table keys the study space once per process, a
// descent keys each lattice move it probes.
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
