package openmp

import "testing"

// Native fuzz targets for the environment parsers. Run the seeds as unit
// tests by default, or explore with `go test -fuzz=FuzzParsePlaces`.

func FuzzParsePlaces(f *testing.F) {
	for _, seed := range []string{
		"", "cores", "threads", "cores(8)", "{0,1},{2,3}", "{0:4}",
		"{0:4},{4:4}", "sockets", "{}", "{-1}", "{0,1", "cores(0)",
		"{0:0}", "{9999999}", "{,}", "moon(3)", "{0},{0}",
		"{9223372036854775807:2}", "threads(3", "{0:100000000000}",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		places, err := ParsePlaces(s)
		if err != nil {
			return
		}
		for _, p := range places {
			for _, c := range p.Cores {
				if c < 0 {
					t.Fatalf("ParsePlaces(%q) produced negative core %d", s, c)
				}
			}
		}
	})
}

func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"static", "dynamic,4", "guided, 16", "auto", "static,0",
		"static,-1", "fair", "dynamic,", ",4", "dynamic,999999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		kind, chunk, err := ParseSchedule(s)
		if err != nil {
			return
		}
		if chunk < 0 {
			t.Fatalf("ParseSchedule(%q) accepted negative chunk %d", s, chunk)
		}
		if kind.String() == "" {
			t.Fatalf("ParseSchedule(%q) produced unnamed kind", s)
		}
	})
}

func FuzzOptionsFromEnviron(f *testing.F) {
	f.Add("OMP_NUM_THREADS=4", "KMP_BLOCKTIME=infinite")
	f.Add("OMP_SCHEDULE=guided", "KMP_ALIGN_ALLOC=128")
	f.Add("KMP_LIBRARY=serial", "OMP_PROC_BIND=master")
	f.Add("garbage", "=")
	f.Add("KMP_BLOCKTIME=-9", "OMP_NUM_THREADS=0")
	f.Fuzz(func(t *testing.T, a, b string) {
		opts, err := OptionsFromEnviron([]string{a, b})
		if err != nil {
			return
		}
		// Any accepted options must survive validation and construct a
		// usable runtime.
		if opts.NumThreads < 1 || opts.NumThreads > 1<<20 {
			t.Skipf("implausible thread count %d", opts.NumThreads)
		}
		if opts.NumThreads > 64 {
			opts.NumThreads = 64 // keep the fuzzer from spawning armies
		}
		rt, err := New(opts)
		if err != nil {
			t.Fatalf("validated options rejected by New: %v", err)
		}
		rt.Close()
	})
}
