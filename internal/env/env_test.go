package env

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"omptune/internal/topology"
	"omptune/openmp"
)

func TestDefaultMatchesSectionIII(t *testing.T) {
	for _, m := range topology.All() {
		d := Default(m)
		if d.Places != topology.PlaceUnset {
			t.Errorf("%s: default places = %s, want unset", m.Arch, d.Places)
		}
		if d.ProcBind != openmp.BindDefault {
			t.Errorf("%s: default bind = %s, want unset", m.Arch, d.ProcBind)
		}
		if d.Schedule != openmp.ScheduleStatic {
			t.Errorf("%s: default schedule = %s, want static", m.Arch, d.Schedule)
		}
		if d.Library != LibThroughput {
			t.Errorf("%s: default library = %s, want throughput", m.Arch, d.Library)
		}
		if d.BlocktimeMS != 200 {
			t.Errorf("%s: default blocktime = %d, want 200", m.Arch, d.BlocktimeMS)
		}
		if d.ForceReduction != openmp.ReductionDefault {
			t.Errorf("%s: default reduction = %s, want unset", m.Arch, d.ForceReduction)
		}
		if d.AlignAlloc != m.CacheLineBytes {
			t.Errorf("%s: default align = %d, want cache line %d", m.Arch, d.AlignAlloc, m.CacheLineBytes)
		}
		if err := d.Validate(m); err != nil {
			t.Errorf("%s: default config invalid: %v", m.Arch, err)
		}
	}
}

func TestEffectiveBindRules(t *testing.T) {
	tests := []struct {
		places topology.PlaceKind
		bind   openmp.BindPolicy
		want   openmp.BindPolicy
	}{
		{topology.PlaceUnset, openmp.BindDefault, openmp.BindNone},
		{topology.PlaceCores, openmp.BindDefault, openmp.BindSpread}, // places set => spread
		{topology.PlaceSockets, openmp.BindDefault, openmp.BindSpread},
		{topology.PlaceCores, openmp.BindMaster, openmp.BindMaster},
		{topology.PlaceUnset, openmp.BindClose, openmp.BindClose},
		{topology.PlaceUnset, openmp.BindNone, openmp.BindNone},
	}
	for _, tt := range tests {
		c := Config{Places: tt.places, ProcBind: tt.bind}
		if got := c.EffectiveBind(); got != tt.want {
			t.Errorf("places=%s bind=%s: EffectiveBind = %s, want %s", tt.places, tt.bind, got, tt.want)
		}
	}
}

func TestEffectiveReductionHeuristic(t *testing.T) {
	c := Config{ForceReduction: openmp.ReductionDefault}
	tests := []struct {
		threads int
		want    openmp.ReductionMethod
	}{
		{1, openmp.ReductionTree}, {2, openmp.ReductionCritical}, {3, openmp.ReductionCritical},
		{4, openmp.ReductionCritical}, {5, openmp.ReductionTree}, {48, openmp.ReductionTree},
	}
	for _, tt := range tests {
		if got := c.EffectiveReduction(tt.threads); got != tt.want {
			t.Errorf("threads=%d: reduction = %s, want %s", tt.threads, got, tt.want)
		}
	}
	forced := Config{ForceReduction: openmp.ReductionAtomic}
	if got := forced.EffectiveReduction(2); got != openmp.ReductionAtomic {
		t.Errorf("forced atomic with 2 threads: got %s", got)
	}
}

func TestEffectiveBlocktime(t *testing.T) {
	c := Config{Library: LibThroughput, BlocktimeMS: 200}
	if got := c.EffectiveBlocktimeMS(); got != 200 {
		t.Errorf("throughput/200: got %d, want 200", got)
	}
	c.Library = openmp.LibTurnaround
	if got := c.EffectiveBlocktimeMS(); got != openmp.BlocktimeInfinite {
		t.Errorf("turnaround: got %d, want infinite", got)
	}
}

func TestSpaceSizes(t *testing.T) {
	// §III: A64FX has 2 alignment values, x86 has 4.
	wants := map[topology.Arch]int{
		topology.A64FX:   4 * 6 * 4 * 2 * 3 * 4 * 2,
		topology.Skylake: 4 * 6 * 4 * 2 * 3 * 4 * 4,
		topology.Milan:   4 * 6 * 4 * 2 * 3 * 4 * 4,
	}
	for arch, want := range wants {
		m := topology.MustGet(arch)
		space := Space(m)
		if len(space) != want {
			t.Errorf("%s: |space| = %d, want %d", arch, len(space), want)
		}
	}
}

func TestSpaceUniqueAndValid(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	seen := make(map[string]bool)
	for _, c := range Space(m) {
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate configuration %s", k)
		}
		seen[k] = true
		if err := c.Validate(m); err != nil {
			t.Fatalf("invalid configuration in space: %v", err)
		}
	}
}

func TestSpaceContainsDefault(t *testing.T) {
	for _, m := range topology.All() {
		found := false
		for _, c := range Space(m) {
			if c == Default(m) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: default configuration not in sweep space", m.Arch)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	f := func(pi, bi, si, li, bti, ri, ai uint8) bool {
		c := Config{
			Places:         PlaceKinds()[int(pi)%len(PlaceKinds())],
			ProcBind:       ProcBinds()[int(bi)%len(ProcBinds())],
			Schedule:       Schedules()[int(si)%len(Schedules())],
			Library:        Libraries()[int(li)%len(Libraries())],
			BlocktimeMS:    Blocktimes()[int(bti)%len(Blocktimes())],
			ForceReduction: Reductions()[int(ri)%len(Reductions())],
			AlignAlloc:     m.AlignAllocValues()[int(ai)%len(m.AlignAllocValues())],
		}
		got, err := parse(m, environOf(c))
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("Environ/Parse round trip failed: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	bad := [][]string{
		{"OMP_SCHEDULE"},                // malformed
		{"KMP_BLOCKTIME=-3"},            // negative
		{"KMP_BLOCKTIME=forever"},       // not a number
		{"KMP_ALIGN_ALLOC=striped"},     // not a number
		{"KMP_ALIGN_ALLOC=96"},          // not in domain
		{"OMP_SCHEDULE=fair"},           // unknown schedule
		{"OMP_PROC_BIND=left"},          // unknown bind
		{"KMP_FORCE_REDUCTION=quantum"}, // unknown method
		{"KMP_LIBRARY=interpretive"},    // unknown library
		{"OMP_PLACES=clouds"},           // unknown place kind
	}
	for _, environ := range bad {
		if _, err := parse(m, environ); err == nil {
			t.Errorf("parse(%v): want error, got nil", environ)
		}
	}
}

func TestParseIgnoresForeignAndNormalizesCase(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	c, err := parse(m, []string{"PATH=/usr/bin", "omp_schedule=GUIDED", "KMP_BLOCKTIME=Infinite"})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Schedule != openmp.ScheduleGuided {
		t.Errorf("schedule = %s, want guided", c.Schedule)
	}
	if c.BlocktimeMS != openmp.BlocktimeInfinite {
		t.Errorf("blocktime = %d, want infinite", c.BlocktimeMS)
	}
}

func TestEnvironOmitsUnset(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	d := Default(m)
	joined := strings.Join(environOf(d), " ")
	if strings.Contains(joined, "OMP_PLACES") || strings.Contains(joined, "OMP_PROC_BIND") ||
		strings.Contains(joined, "KMP_FORCE_REDUCTION") {
		t.Errorf("default Environ should omit unset variables: %v", environOf(d))
	}
	if !strings.Contains(joined, "KMP_BLOCKTIME=200") {
		t.Errorf("default Environ missing blocktime: %v", environOf(d))
	}
}

func TestValidateRejectsOutOfDomain(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	c := Default(m)
	c.AlignAlloc = 64 // x86-only value
	if err := c.Validate(m); err == nil {
		t.Error("Validate should reject align 64 on A64FX")
	}
	c = Default(m)
	c.BlocktimeMS = -7
	if err := c.Validate(m); err == nil {
		t.Error("Validate should reject blocktime -7")
	}
}

func TestFeatureEncoding(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	d := Default(m)
	for _, v := range Names() {
		f := d.Feature(v)
		if f < 0 {
			t.Errorf("Feature(%s) = %v, want >= 0", v, f)
		}
	}
	if got := d.Feature(VarAlignAlloc); got != 6 { // log2(64)
		t.Errorf("Feature(align=64) = %v, want 6", got)
	}
	c := d
	c.BlocktimeMS = openmp.BlocktimeInfinite
	if d.Feature(VarBlocktime) == c.Feature(VarBlocktime) {
		t.Error("blocktime 200 and infinite should encode differently")
	}
}

func TestSetAndValue(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	c := Default(m)
	for _, v := range Names() {
		for _, val := range Values(m, v) {
			nc, err := c.Set(v, val)
			if err != nil {
				t.Fatalf("Set(%s, %s): %v", v, val, err)
			}
			if got := nc.Value(v); got != val {
				t.Errorf("Set(%s, %s) then Value = %q", v, val, got)
			}
			if err := nc.Validate(m); err != nil {
				t.Errorf("Set(%s, %s) produced invalid config: %v", v, val, err)
			}
		}
	}
	if _, err := c.Set(VarName("BOGUS"), "x"); err == nil {
		t.Error("Set(BOGUS): want error")
	}
	if _, err := c.Set(VarBlocktime, "never"); err == nil {
		t.Error("Set(blocktime, never): want error")
	}
}

func TestKeyIsStableAndDistinct(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	a := Default(m)
	b := a
	b.Schedule = openmp.ScheduleDynamic
	if a.Key() == b.Key() {
		t.Error("distinct configs share a key")
	}
	if a.Key() != Default(m).Key() {
		t.Error("Key not deterministic")
	}
}

// TestFlatConfigBackCompat: the nesting variables are foreign to Config, as
// any variable the package does not know: Key and Environ never name them,
// and parse ignores them, so an environment that sets them parses to the
// configuration it would without them.
func TestFlatConfigBackCompat(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	c := Default(m)
	if k := c.Key(); strings.Contains(k, "nthreads") || strings.Contains(k, "maxlevels") ||
		strings.Contains(k, "threadlimit") {
		t.Errorf("Key %q names a nesting variable", k)
	}
	for _, kv := range environOf(c) {
		if strings.HasPrefix(kv, "OMP_NUM_THREADS") || strings.HasPrefix(kv, "OMP_MAX_ACTIVE_LEVELS") ||
			strings.HasPrefix(kv, "OMP_THREAD_LIMIT") {
			t.Errorf("Environ emits %q", kv)
		}
	}
	got, err := parse(m, append(environOf(c), "OMP_NUM_THREADS=4,2", "OMP_MAX_ACTIVE_LEVELS=2", "OMP_THREAD_LIMIT=8"))
	if err != nil || got != c {
		t.Errorf("Parse with nesting variables = %s, %v; want %s", got, err, c)
	}
}

// TestConfigSize pins Config at seven word-sized integers, one per variable
// (the four kinds are the runtime's integer enums): 56 bytes on a 64-bit
// machine. Every dataset.Sample holds one and every probe copies one, so a
// kind that came back as a string would cost 8 bytes and a pointer the
// collector scans.
func TestConfigSize(t *testing.T) {
	if got, want := unsafe.Sizeof(Config{}), 7*unsafe.Sizeof(0); got != want {
		t.Errorf("unsafe.Sizeof(Config{}) = %d, want %d", got, want)
	}
}

// environOf renders c as KEY=VALUE strings in the style a user would export
// before launching an application, unset variables omitted.
func environOf(c Config) []string {
	var out []string
	for _, v := range Names() {
		if val := c.Value(v); val != "unset" {
			out = append(out, string(v)+"="+val)
		}
	}
	return out
}

// parse is ParseAssignments over KEY=VALUE entries (or a process-style
// environment slice); a malformed entry is reported before any value is read.
func parse(m *topology.Machine, entries []string) (Config, error) {
	as := make([]Assignment, len(entries))
	for i, kv := range entries {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("env: malformed entry %q", kv)
		}
		as[i] = Assignment{VarName(key), val}
	}
	return ParseAssignments(m, as)
}
