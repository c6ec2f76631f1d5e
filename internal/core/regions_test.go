package core

import (
	"testing"

	"omptune/openmp/profile"
)

// foldTestReport produces a one-region profiler report to feed an aggregator.
func foldTestReport() *profile.Report {
	p := profile.New()
	slots := make([]profile.Scratch, 2)
	for i := range slots {
		slots[i] = profile.Scratch{Region: 1, StartNS: 10, ArriveNS: 50 + int64(i), Arrived: true}
	}
	p.Fold(0x1234, 0, 1, 0, 100, slots)
	return p.Snapshot()
}

func TestMonitorRegions(t *testing.T) {
	m := NewMonitor()
	if rows := m.Regions(); len(rows) != 0 {
		t.Fatalf("fresh monitor has %d region rows, want 0", len(rows))
	}
	m.RuntimeProfile().Fold(foldTestReport())
	m.RuntimeProfile().Fold(foldTestReport())
	rows := m.Regions()
	if len(rows) != 1 {
		t.Fatalf("got %d region rows, want 1 (same construct merged)", len(rows))
	}
	r := rows[0]
	if r.Count != 2 || r.Threads != 2 || r.Level != 0 {
		t.Errorf("row = %+v, want count 2, threads 2, level 0", r)
	}
	if r.WallNS <= 0 || r.ThreadNS <= 0 {
		t.Errorf("times not positive: wall=%v thread=%v", r.WallNS, r.ThreadNS)
	}
	if r.ParallelEfficiency <= 0 || r.ParallelEfficiency > 1 {
		t.Errorf("ParallelEfficiency = %v, want in (0, 1]", r.ParallelEfficiency)
	}
}

func TestSearchMonitorRegions(t *testing.T) {
	m := NewMonitor()
	if rows := m.Regions(); len(rows) != 0 {
		t.Fatalf("fresh search monitor has %d region rows, want 0", len(rows))
	}
	m.RuntimeProfile().Fold(foldTestReport())
	if rows := m.Regions(); len(rows) != 1 {
		t.Fatalf("got %d region rows, want 1", len(rows))
	}
}
