package topology

import (
	"testing"
	"testing/quick"
)

func TestTableIValues(t *testing.T) {
	tests := []struct {
		arch      Arch
		cores     int
		sockets   int
		numa      int
		clock     float64
		line      int
		mem       MemKind
		memGB     int
		llcGroups int
	}{
		{A64FX, 48, 1, 4, 1.8, 256, HBM, 32, 4},
		{Skylake, 40, 2, 2, 2.4, 64, DDR4, 188, 2},
		{Milan, 96, 2, 8, 2.3, 64, DDR4, 251, 12},
	}
	for _, tt := range tests {
		m := MustGet(tt.arch)
		if m.Cores != tt.cores || m.Sockets != tt.sockets || m.NUMANodes != tt.numa {
			t.Errorf("%s: cores/sockets/numa = %d/%d/%d, want %d/%d/%d",
				tt.arch, m.Cores, m.Sockets, m.NUMANodes, tt.cores, tt.sockets, tt.numa)
		}
		if m.ClockGHz != tt.clock {
			t.Errorf("%s: clock = %v, want %v", tt.arch, m.ClockGHz, tt.clock)
		}
		if m.CacheLineBytes != tt.line {
			t.Errorf("%s: cache line = %d, want %d", tt.arch, m.CacheLineBytes, tt.line)
		}
		if m.Memory != tt.mem || m.MemGB != tt.memGB {
			t.Errorf("%s: memory = %s/%d, want %s/%d", tt.arch, m.Memory, m.MemGB, tt.mem, tt.memGB)
		}
		if m.LLCGroups != tt.llcGroups {
			t.Errorf("%s: LLC groups = %d, want %d", tt.arch, m.LLCGroups, tt.llcGroups)
		}
	}
}

func TestGetUnknownArch(t *testing.T) {
	if _, err := Get(Arch("vax")); err == nil {
		t.Fatal("Get(vax): want error, got nil")
	}
}

func TestAllOrder(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("All() returned %d machines, want 3", len(all))
	}
	want := []Arch{A64FX, Skylake, Milan}
	for i, m := range all {
		if m.Arch != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, m.Arch, want[i])
		}
	}
}

func TestDerivedGroupSizes(t *testing.T) {
	for _, m := range All() {
		if m.Cores%m.Sockets != 0 {
			t.Errorf("%s: %d sockets do not divide %d cores", m.Arch, m.Sockets, m.Cores)
		}
		if m.CoresPerNUMA()*m.NUMANodes != m.Cores {
			t.Errorf("%s: cores per NUMA %d does not divide %d cores", m.Arch, m.CoresPerNUMA(), m.Cores)
		}
		if m.Cores%m.LLCGroups != 0 {
			t.Errorf("%s: %d LLC groups do not divide %d cores", m.Arch, m.LLCGroups, m.Cores)
		}
	}
}

func TestCoreMapping(t *testing.T) {
	m := MustGet(Milan)
	// Milan: 96 cores, 2 sockets (48 each), 8 NUMA (12 each), 12 LLCs (8 each).
	if got := m.NUMANodeOf(95); got != 7 {
		t.Errorf("NUMANodeOf(95) = %d, want 7", got)
	}
}

func TestNUMADistance(t *testing.T) {
	m := MustGet(Milan)
	if d := m.NUMADistance(3, 3); d != 10 {
		t.Errorf("local distance = %v, want 10", d)
	}
	// Nodes 0 and 3 share socket 0 on Milan (4 nodes per socket).
	if d := m.NUMADistance(0, 3); d != 10*m.RemoteNUMAFactor {
		t.Errorf("same-socket distance = %v, want %v", d, 10*m.RemoteNUMAFactor)
	}
	if d := m.NUMADistance(0, 7); d != 10*m.CrossSocketFactor {
		t.Errorf("cross-socket distance = %v, want %v", d, 10*m.CrossSocketFactor)
	}
	// Single-socket A64FX: any remote node costs the same.
	a := MustGet(A64FX)
	if d := a.NUMADistance(0, 3); d != 10*a.RemoteNUMAFactor {
		t.Errorf("a64fx remote distance = %v, want %v", d, 10*a.RemoteNUMAFactor)
	}
}

func TestNUMADistanceSymmetric(t *testing.T) {
	for _, m := range All() {
		f := func(a, b uint8) bool {
			i, j := int(a)%m.NUMANodes, int(b)%m.NUMANodes
			return m.NUMADistance(i, j) == m.NUMADistance(j, i)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: NUMADistance not symmetric: %v", m.Arch, err)
		}
	}
}

func TestPartitionCoversAllCoresExactlyOnce(t *testing.T) {
	kinds := []PlaceKind{PlaceUnset, PlaceThreads, PlaceCores, PlaceLLCs, PlaceSockets, PlaceNUMA}
	for _, m := range All() {
		for _, k := range kinds {
			places, err := m.Partition(k)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Arch, k, err)
			}
			seen := make(map[int]int)
			for _, p := range places {
				for _, c := range p.Cores {
					seen[c]++
				}
			}
			if len(seen) != m.Cores {
				t.Errorf("%s/%s: partition covers %d cores, want %d", m.Arch, k, len(seen), m.Cores)
			}
			for c, n := range seen {
				if n != 1 {
					t.Errorf("%s/%s: core %d appears %d times", m.Arch, k, c, n)
				}
			}
		}
	}
}

func TestPartitionGroupCounts(t *testing.T) {
	m := MustGet(Skylake)
	tests := []struct {
		kind PlaceKind
		n    int
	}{
		{PlaceUnset, 1},
		{PlaceCores, 40},
		{PlaceLLCs, 2},
		{PlaceSockets, 2},
		{PlaceNUMA, 2},
	}
	for _, tt := range tests {
		places, err := m.Partition(tt.kind)
		if err != nil {
			t.Fatalf("%s: %v", tt.kind, err)
		}
		if len(places) != tt.n {
			t.Errorf("Partition(%s) = %d places, want %d", tt.kind, len(places), tt.n)
		}
	}
	if _, err := m.Partition(PlaceKind(99)); err == nil {
		t.Error("Partition(bogus): want error, got nil")
	}
}

func TestSweepThreadCounts(t *testing.T) {
	m := MustGet(A64FX)
	got := m.SweepThreadCounts()
	want := []int{12, 24, 48}
	if len(got) != len(want) {
		t.Fatalf("SweepThreadCounts() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SweepThreadCounts()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAlignAllocValues(t *testing.T) {
	if got := MustGet(A64FX).AlignAllocValues(); len(got) != 2 || got[0] != 256 {
		t.Errorf("A64FX align values = %v, want [256 512]", got)
	}
	if got := MustGet(Milan).AlignAllocValues(); len(got) != 4 || got[0] != 64 {
		t.Errorf("Milan align values = %v, want [64 128 256 512]", got)
	}
	// The default (first element) must be the cache line size (§III-7).
	for _, m := range All() {
		if m.AlignAllocValues()[0] != m.CacheLineBytes {
			t.Errorf("%s: first align value %d != cache line %d", m.Arch, m.AlignAllocValues()[0], m.CacheLineBytes)
		}
	}
}

func TestWakeupAndNoiseCalibration(t *testing.T) {
	// Milan is the noisiest machine in the study (Tables III-V); all
	// config-persistent sigmas must stay small and positive.
	a, s, mi := MustGet(A64FX), MustGet(Skylake), MustGet(Milan)
	if mi.NoiseSigma <= a.NoiseSigma || mi.NoiseSigma <= s.NoiseSigma {
		t.Errorf("Milan noise %v should exceed A64FX %v and Skylake %v",
			mi.NoiseSigma, a.NoiseSigma, s.NoiseSigma)
	}
	for _, m := range All() {
		if m.NoiseSigma <= 0 || m.NoiseSigma > 0.05 {
			t.Errorf("%s: NoiseSigma = %v out of range", m.Arch, m.NoiseSigma)
		}
		if m.WakeupMicros <= 0 {
			t.Errorf("%s: WakeupMicros = %v, want > 0", m.Arch, m.WakeupMicros)
		}
	}
}
