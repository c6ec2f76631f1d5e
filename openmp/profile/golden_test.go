package profile

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenInput is a report's raw sums as a consumer would read them back from
// -profile-json: an outer worksharing region, a nested task region with
// discarded samples and a name longer than the table column, a serial region
// with no source line, and a row whose overhead exceeds its busy time. The
// derived metrics are left out so the test re-derives them.
const goldenInput = `{"dropped": 3, "regions": [
 {"name": "omptune/internal/apps.(*lu).sweep", "file": "apps/lu.go", "line": 88, "pc": "0x4a1b20", "level": 0,
  "count": 40, "threads": 4, "samples": 160,
  "wall_ns": 52000000, "thread_ns": 208000000, "busy_ns": 181000000, "max_busy_ns": 49500000,
  "imbalance_ns": 6100000, "sched_ns": 2300000, "explicit_bar_ns": 4100000, "final_bar_ns": 19800000,
  "chunks": 5120, "parks": 12, "wakes": 11},
 {"name": "omptune/internal/apps.(*nqueens).solveSubtreeWithAVeryLongClosureName.func1", "file": "apps/nqueens.go", "line": 131, "pc": "0x4a2c40", "level": 1,
  "count": 7, "threads": 2, "samples": 13, "missing": 1,
  "wall_ns": 9000000, "thread_ns": 16500000, "busy_ns": 15200000, "max_busy_ns": 8100000,
  "imbalance_ns": 700000, "final_bar_ns": 1250000,
  "tasks_created": 900, "tasks_run": 900, "tasks_stolen": 270, "steal_batches": 60,
  "steals_local": 200, "steals_remote": 50, "parks": 3, "wakes": 3},
 {"name": "unknown", "pc": "0x0", "level": 0,
  "count": 2, "threads": 1, "samples": 2,
  "wall_ns": 4000, "thread_ns": 4000, "busy_ns": 4500, "max_busy_ns": 2300},
 {"name": "main.idle thread;pool", "file": "cmd/main.go", "line": 9, "pc": "0x4a3d60", "level": 2,
  "count": 1, "threads": 3, "samples": 3,
  "wall_ns": 1000, "thread_ns": 3000000, "busy_ns": 2400000, "max_busy_ns": 900000, "sched_ns": 2600000}
]}`

// TestReportGolden pins every byte a Report renders — JSON key order, the
// table, the folded stacks — from fixed raw sums.
func TestReportGolden(t *testing.T) {
	var rep Report
	if err := json.Unmarshal([]byte(goldenInput), &rep); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Regions {
		rep.Regions[i].Derived = rep.Regions[i].Derive()
	}
	rep.sort()

	var js, folded bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json.golden", js.Bytes())
	checkGolden(t, "report.txt.golden", []byte(rep.String()))
	checkGolden(t, "report.folded.golden", folded.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestTableConcurrentFolds folds from many goroutines at once — each with
// its own slots, as nested team primaries do — onto shared and private
// (pc, level) keys while another goroutine snapshots, and checks that no
// fold is lost: every row's sums are exact, and past capacity every fold of
// a key that found no row is counted in Dropped.
func TestTableConcurrentFolds(t *testing.T) {
	const (
		folders = 8
		rounds  = 25
	)
	// fold is one region instance on a one-thread team owned by goroutine g:
	// two chunks and 10 ns of claim overhead, so the row sums are known.
	slots := make([][]Scratch, folders)
	for g := range slots {
		slots[g] = make([]Scratch, 1)
	}
	fold := func(p *Profiler, g int, pc uintptr, level int, region uint64) {
		fork := p.Now()
		sc := &slots[g][0]
		*sc = Scratch{Region: region, StartNS: p.Now()}
		sc.Sums.Chunks += 2
		sc.Sums.SchedNS += 10
		sc.ArriveNS = p.Now()
		p.Fold(pc, level, region, fork, slots[g])
	}
	// run starts the folders plus a snapshotter that polls until they finish.
	run := func(p *Profiler, body func(g int)) {
		var wg sync.WaitGroup
		done := make(chan struct{})
		snapped := make(chan struct{})
		go func() {
			defer close(snapped)
			for {
				if rep := p.Snapshot(); len(rep.Regions) > tableSize {
					t.Errorf("snapshot has %d rows, capacity %d", len(rep.Regions), tableSize)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		for g := 0; g < folders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				body(g)
			}(g)
		}
		wg.Wait()
		close(done)
		<-snapped
	}

	t.Run("sums", func(t *testing.T) {
		const private = 20
		p := New()
		run(p, func(g int) {
			for r := 0; r < rounds; r++ {
				for _, pc := range []uintptr{0x100, 0x200} { // shared by every folder
					for level := 0; level < 2; level++ {
						fold(p, g, pc, level, uint64(r+1))
					}
				}
				for i := 0; i < private; i++ {
					fold(p, g, uintptr(0x10000+g*0x1000+i*16), 0, uint64(r+1))
				}
			}
		})
		rep := p.Snapshot()
		if want := 4 + folders*private; len(rep.Regions) != want || rep.Dropped != 0 {
			t.Fatalf("rows/dropped = %d/%d, want %d/0", len(rep.Regions), rep.Dropped, want)
		}
		for _, rp := range rep.Regions {
			want := int64(rounds)
			if rp.PC == "0x100" || rp.PC == "0x200" {
				want = folders * rounds
			}
			if rp.Count != want || rp.Samples != want || rp.Missing != 0 ||
				rp.Chunks != 2*want || rp.SchedNS != 10*want || rp.Threads != 1 {
				t.Errorf("%s level %d: count/samples/missing/chunks/sched/threads = %d/%d/%d/%d/%d/%d, want %d/%d/0/%d/%d/1",
					rp.PC, rp.Level, rp.Count, rp.Samples, rp.Missing, rp.Chunks, rp.SchedNS, rp.Threads,
					want, want, 2*want, 10*want)
			}
		}
	})

	// A key gets its row at its first fold or never (rows are not freed), so
	// with every key folded `rounds` times Dropped is exact whatever the
	// interleaving.
	t.Run("capacity", func(t *testing.T) {
		const over = 10 // keys per folder beyond an even share of the table
		p := New()
		run(p, func(g int) {
			for r := 0; r < rounds; r++ {
				for i := 0; i < tableSize/folders+over; i++ {
					fold(p, g, uintptr(0x10000+g*0x10000+i*16), 0, uint64(r+1))
				}
			}
		})
		rep := p.Snapshot()
		if len(rep.Regions) != tableSize {
			t.Errorf("rows = %d, want %d", len(rep.Regions), tableSize)
		}
		if want := uint64(folders * over * rounds); rep.Dropped != want {
			t.Errorf("Dropped = %d, want %d", rep.Dropped, want)
		}
		for _, rp := range rep.Regions {
			if rp.Count != rounds || rp.Chunks != 2*rounds {
				t.Errorf("%s: count/chunks = %d/%d, want %d/%d", rp.PC, rp.Count, rp.Chunks, rounds, 2*rounds)
			}
		}
	})
}
