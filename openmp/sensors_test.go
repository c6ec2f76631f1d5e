package openmp_test

import (
	"testing"

	"omptune/internal/apps"
	"omptune/openmp"
	"omptune/openmp/trace"
)

// kernelScale is the input scale the sensor oracle runs each study kernel
// at: small enough that all fifteen take well under a second traced.
const kernelScale = 0.25

// TestSensorsAgreeOnKernels runs every study kernel at T = 2 with the tracer
// and the profiler attached at once and rings that drop nothing, and holds
// the trace summary to the profile on every Sums field, per nesting level:
// both fold the same stamped events through one rule, so busy, scheduling
// and barrier times must agree as exactly as the counts.
func TestSensorsAgreeOnKernels(t *testing.T) {
	for _, sched := range []openmp.ScheduleKind{openmp.ScheduleStatic, openmp.ScheduleDynamic, openmp.ScheduleGuided} {
		t.Run(sched.String(), func(t *testing.T) {
			o := openmp.DefaultOptions()
			o.NumThreads = 2
			o.Schedule = sched
			o.BlocktimeMS = 0 // park at once: task-wait parks fold into their regions
			rt, err := openmp.New(o)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			for _, a := range apps.All() {
				a.Kernel(rt, kernelScale) // builds the kernel's inputs and workspace untraced
				if err := rt.StartTrace(1 << 17); err != nil {
					t.Fatalf("%s: StartTrace: %v", a.Name, err)
				}
				if err := rt.StartProfile(); err != nil {
					t.Fatalf("%s: StartProfile: %v", a.Name, err)
				}
				a.Kernel(rt, kernelScale)
				rep := rt.StopProfile()
				data := rt.StopTrace()
				if data.Dropped != 0 || rep.Dropped != 0 {
					t.Fatalf("%s: dropped %d trace events, %d profile regions, want 0 and 0", a.Name, data.Dropped, rep.Dropped)
				}
				sum := trace.Summarize(data)
				if len(sum.Regions) == 0 || sum.Total.Samples == 0 || sum.Total.Missing != 0 {
					t.Errorf("%s: %d regions, %d samples, %d missing; want some regions and samples and none missing",
						a.Name, len(sum.Regions), sum.Total.Samples, sum.Total.Missing)
				}
				for _, diff := range openmp.SensorDisagreements(sum, rep) {
					t.Errorf("%s: %s", a.Name, diff)
				}
			}
		})
	}
}
