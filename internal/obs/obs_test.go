package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("omptune_test_events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// A gauge is a function read at scrape time; re-registering replaces it.
	r.GaugeFunc("omptune_test_level", "level", func() float64 { return 2.5 })
	r.GaugeFunc("omptune_test_level", "level", func() float64 { return 1.5 })
	if got, want := promString(t, r), "omptune_test_level 1.5\n"; !containsLine(got, want) {
		t.Fatalf("exposition missing %q:\n%s", want, got)
	}
}

func TestRegisterIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("omptune_test_total", "", "arch", "a64fx")
	b := r.Counter("omptune_test_total", "", "arch", "a64fx")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("omptune_test_total", "", "arch", "milan")
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	// Label order must not matter for identity.
	h1 := r.Histogram("omptune_test_seconds", "", "a", "1", "b", "2")
	h2 := r.Histogram("omptune_test_seconds", "", "b", "2", "a", "1")
	if h1 != h2 {
		t.Fatal("label order changed instrument identity")
	}
}

func TestRegisterTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("omptune_test_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.GaugeFunc("omptune_test_total", "", func() float64 { return 0 })
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lead", "has space", "has-dash"} {
		func() {
			defer func() { recover() }()
			r.Counter(bad, "")
			t.Errorf("metric name %q accepted", bad)
		}()
	}
	func() {
		defer func() { recover() }()
		r.Counter("ok_name", "", "odd")
		t.Error("odd label list accepted")
	}()
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("omptune_test_derived", "", func() float64 { return v })
	var got string
	got = promString(t, r)
	if want := "omptune_test_derived 3\n"; !containsLine(got, want) {
		t.Fatalf("exposition missing %q:\n%s", want, got)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// concurrent registration of the same and different instruments, observes,
// and snapshots/expositions — and is meaningful under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			arch := []string{"a64fx", "milan", "skylake"}[w%3]
			for i := 0; i < iters; i++ {
				r.Counter("omptune_conc_total", "", "arch", arch).Inc()
				r.GaugeFunc("omptune_conc_level", "", func() float64 { return float64(i) })
				r.Histogram("omptune_conc_seconds", "").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	// Concurrent scrapers.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				promString(t, r)
				r.Histogram("omptune_conc_seconds", "").Snapshot()
			}
		}()
	}
	wg.Wait()

	var total uint64
	for _, arch := range []string{"a64fx", "milan", "skylake"} {
		total += r.Counter("omptune_conc_total", "", "arch", arch).Value()
	}
	if want := uint64(workers * iters); total != want {
		t.Fatalf("counter total = %d, want %d", total, want)
	}
	if got, want := promString(t, r), "omptune_conc_level 1999\n"; !containsLine(got, want) {
		t.Fatalf("exposition missing %q:\n%s", want, got)
	}
	if got := r.Histogram("omptune_conc_seconds", "").Count(); got != uint64(workers*iters) {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}
