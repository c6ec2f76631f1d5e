package openmp

import (
	"testing"
	"unsafe"
)

func TestDefaultOptionsMirrorRuntimeDefaults(t *testing.T) {
	o := DefaultOptions()
	if o.Schedule != ScheduleStatic {
		t.Errorf("default schedule = %s, want static", o.Schedule)
	}
	if o.Library != LibThroughput {
		t.Errorf("default library = %s, want throughput", o.Library)
	}
	if o.BlocktimeMS != 200 {
		t.Errorf("default blocktime = %d, want 200", o.BlocktimeMS)
	}
	if o.Bind != BindDefault || o.Reduction != ReductionDefault {
		t.Error("default bind/reduction should be the unset sentinels")
	}
	if o.NumThreads < 1 {
		t.Errorf("default NumThreads = %d", o.NumThreads)
	}
}

func TestOptionsFromEnviron(t *testing.T) {
	o, err := OptionsFromEnviron([]string{
		"OMP_NUM_THREADS=7",
		"OMP_SCHEDULE=guided,4",
		"OMP_PROC_BIND=close",
		"OMP_PLACES={0,1},{2,3}",
		"KMP_LIBRARY=turnaround",
		"KMP_BLOCKTIME=infinite",
		"KMP_FORCE_REDUCTION=atomic",
		"KMP_ALIGN_ALLOC=128",
		"IRRELEVANT=1",
	})
	if err != nil {
		t.Fatalf("OptionsFromEnviron: %v", err)
	}
	if o.NumThreads != 7 || o.Schedule != ScheduleGuided || o.ChunkSize != 4 ||
		o.Bind != BindClose || len(o.Places) != 2 || o.Library != LibTurnaround ||
		o.BlocktimeMS != BlocktimeInfinite || o.Reduction != ReductionAtomic || o.AlignAlloc != 128 {
		t.Errorf("parsed options wrong: %+v", o)
	}
}

func TestOptionsFromEnvironErrors(t *testing.T) {
	bad := [][]string{
		{"OMP_NUM_THREADS=0"},
		{"OMP_NUM_THREADS=two"},
		{"OMP_SCHEDULE=roundrobin"},
		{"OMP_SCHEDULE=static,0"},
		{"OMP_PROC_BIND=sideways"},
		{"KMP_LIBRARY=compiled"},
		{"KMP_BLOCKTIME=-1"},
		{"KMP_BLOCKTIME=soon"},
		{"KMP_FORCE_REDUCTION=gather"},
		{"KMP_ALIGN_ALLOC=100"},
		{"NOEQUALS"},
	}
	for _, env := range bad {
		if _, err := OptionsFromEnviron(env); err == nil {
			t.Errorf("OptionsFromEnviron(%v): want error", env)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	k, c, err := ParseSchedule("dynamic, 16")
	if err != nil || k != ScheduleDynamic || c != 16 {
		t.Errorf("dynamic,16 = %v,%d,%v", k, c, err)
	}
	k, c, err = ParseSchedule("AUTO")
	if err != nil || k != ScheduleAuto || c != 0 {
		t.Errorf("AUTO = %v,%d,%v", k, c, err)
	}
}

func TestEnumStrings(t *testing.T) {
	checks := map[string]string{
		ScheduleStatic.String():    "static",
		ScheduleGuided.String():    "guided",
		BindSpread.String():        "spread",
		BindMaster.String():        "master",
		LibTurnaround.String():     "turnaround",
		ReductionTree.String():     "tree",
		ReductionCritical.String(): "critical",
	}
	for got, want := range checks {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if ScheduleKind(99).String() == "" || BindPolicy(99).String() == "" {
		t.Error("out-of-range enums should still stringify")
	}
}

func TestParseBindPrimaryAlias(t *testing.T) {
	b, err := ParseBind("primary")
	if err != nil || b != BindMaster {
		t.Errorf("primary = %v, %v; want master", b, err)
	}
}

func TestEffectiveDerivations(t *testing.T) {
	if BindDefault.Resolve(false) != BindNone {
		t.Error("unset bind without places should resolve to none")
	}
	if BindDefault.Resolve(true) != BindSpread {
		t.Error("unset bind with places should resolve to spread")
	}
	if BindMaster.Resolve(true) != BindMaster {
		t.Error("a set bind must resolve to itself")
	}
	if LibTurnaround.Blocktime(0) != BlocktimeInfinite {
		t.Error("turnaround should force infinite blocktime")
	}
	if LibThroughput.Blocktime(0) != 0 || LibSerial.Blocktime(7) != 7 {
		t.Error("throughput and serial should keep the configured blocktime")
	}
	if ReductionDefault.Resolve(1) != ReductionTree ||
		ReductionDefault.Resolve(3) != ReductionCritical ||
		ReductionDefault.Resolve(16) != ReductionTree {
		t.Error("reduction heuristic thresholds wrong")
	}
	if ReductionAtomic.Resolve(3) != ReductionAtomic {
		t.Error("forced reduction must override the heuristic")
	}
}

func TestAlignedAllocation(t *testing.T) {
	for _, align := range []int{8, 64, 128, 256, 512} {
		b := AlignedBytes(100, align)
		if len(b) != 100 {
			t.Fatalf("align %d: len = %d", align, len(b))
		}
		if got := Alignment(unsafe.Pointer(unsafe.SliceData(b))); got < align {
			t.Errorf("align %d: actual alignment %d", align, got)
		}
		f := AlignedFloat64s(33, align)
		if len(f) != 33 {
			t.Fatalf("align %d: float len = %d", align, len(f))
		}
		if got := Alignment(unsafe.Pointer(unsafe.SliceData(f))); got < align {
			t.Errorf("align %d: float alignment %d", align, got)
		}
		f[0], f[32] = 1, 2 // must be addressable without faults
	}
	if AlignedFloat64s(0, 64) != nil {
		t.Error("zero-length aligned alloc should be nil")
	}
}

func TestAlignedAllocationPanicsOnBadAlign(t *testing.T) {
	for _, align := range []int{0, 3, 12, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AlignedBytes(8, %d) should panic", align)
				}
			}()
			AlignedBytes(8, align)
		}()
	}
}

func TestPadStride(t *testing.T) {
	if padStride(64) != 8 || padStride(512) != 64 || padStride(8) != 1 || padStride(1) != 1 {
		t.Error("padStride wrong")
	}
}
