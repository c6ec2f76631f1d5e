package dataset

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"omptune/internal/env"
	"omptune/internal/topology"
)

// colGroup orders the optional column groups of the tabular format. The
// format grows linearly: a file that needs a group also carries every earlier
// one (blank where unset), and a dataset that needs none is written with the
// base columns alone — byte-identical with the first open-sourced files.
type colGroup int

const (
	groupBase   colGroup = iota // the original 20 columns
	groupSource                 // backend provenance: any sample not model-sourced
	groupMeta                   // series noise provenance: any sample carrying it
	groupGone                   // read, never written: see goneCol
)

// column is one CSV column, in both directions: WriteCSV appends a sample's
// cell to the row with write, ReadCSV finds the column by its header name and
// parses the cell with read. same reports whether two samples share the
// column's cell, so the writer copies the row above's bytes instead of
// rendering them again; it is nil for a column rendered on every row. A nil
// read marks a column derived from the others, which reading recomputes
// instead of trusting.
type column struct {
	name  string
	group colGroup
	write func(w *rowWrite, s *Sample)
	same  func(a, b *Sample) bool
	read  func(p *CSVReader, cell string) error
}

// columns is the one definition of the format. Its order is the written
// column order.
var columns = slices.Concat(
	[]column{
		textCol("arch", func(s *Sample) *string { return (*string)(&s.Arch) }),
		textCol("app", func(s *Sample) *string { return &s.App }),
		textCol("suite", func(s *Sample) *string { return &s.Suite }),
		textCol("setting", func(s *Sample) *string { return &s.Setting }),
		intCol("threads", groupBase, func(s *Sample) *int { return &s.Threads }),
		floatCol("scale", groupBase, func(s *Sample) *float64 { return &s.Scale }),
	},
	cfgCols(),
	[]column{
		floatCol("runtime_0", groupBase, func(s *Sample) *float64 { return &s.Runtimes[0] }),
		floatCol("runtime_1", groupBase, func(s *Sample) *float64 { return &s.Runtimes[1] }),
		floatCol("runtime_2", groupBase, func(s *Sample) *float64 { return &s.Runtimes[2] }),
		floatCol("runtime_3", groupBase, func(s *Sample) *float64 { return &s.Runtimes[3] }),
		floatCol("default_runtime", groupBase, func(s *Sample) *float64 { return &s.DefaultRuntime }),
		{name: "speedup", group: groupBase, write: func(w *rowWrite, s *Sample) { w.b = appendFloat(w.b, s.Speedup()) }},
		{name: "optimal", group: groupBase, write: func(w *rowWrite, s *Sample) { w.b = strconv.AppendBool(w.b, s.Optimal()) }},

		{"source", groupSource,
			func(w *rowWrite, s *Sample) { w.b = appendCell(w.b, s.SourceName()) },
			func(a, b *Sample) bool { return a.SourceName() == b.SourceName() },
			func(p *CSVReader, cell string) error {
				if cell == "" {
					return errors.New("empty")
				}
				p.s.Source = p.intern(cell)
				return nil
			}},
	},
	// Files written before the nesting axis left the sweep carry its three
	// columns ahead of the provenance group, blank in every flat row.
	[]column{goneCol("omp_num_threads"), goneCol("omp_max_active_levels"), goneCol("omp_thread_limit")},
	metaCols(
		intCol("reps", groupMeta, func(s *Sample) *int { return &s.RepsRun }),
		floatCol("cov", groupMeta, func(s *Sample) *float64 { return &s.CoV }),
		floatCol("ci", groupMeta, func(s *Sample) *float64 { return &s.CIRel }),
	),
)

// textCol is a string field, written quoted where CSV needs it and read back
// interned.
func textCol(name string, field func(*Sample) *string) column {
	return column{name, groupBase,
		func(w *rowWrite, s *Sample) { w.b = appendCell(w.b, *field(s)) },
		func(a, b *Sample) bool { return *field(a) == *field(b) },
		func(p *CSVReader, cell string) error { *field(p.s) = p.intern(cell); return nil }}
}

func intCol(name string, g colGroup, field func(*Sample) *int) column {
	return column{name, g,
		func(w *rowWrite, s *Sample) { w.b = strconv.AppendInt(w.b, int64(*field(s)), 10) },
		func(a, b *Sample) bool { return *field(a) == *field(b) },
		func(p *CSVReader, cell string) (err error) { *field(p.s), err = strconv.Atoi(cell); return err }}
}

// floatCol is a float field; two samples share its cell when the floats
// share their bits.
func floatCol(name string, g colGroup, field func(*Sample) *float64) column {
	return column{name, g,
		func(w *rowWrite, s *Sample) { w.b = appendFloat(w.b, *field(s)) },
		func(a, b *Sample) bool { return math.Float64bits(*field(a)) == math.Float64bits(*field(b)) },
		func(p *CSVReader, cell string) (err error) {
			*field(p.s), err = strconv.ParseFloat(cell, 64)
			return err
		}}
}

// goneCol is a column of a variable the sweep no longer takes: a file may
// carry it, blank, and a cell that sets the variable is refused.
func goneCol(name string) column {
	return column{name: name, group: groupGone,
		read: func(_ *CSVReader, cell string) error {
			if cell != "" {
				return fmt.Errorf("%q sets a variable the sweep no longer takes (the nesting axis was removed)", cell)
			}
			return nil
		}}
}

// metaCols are the provenance columns, blank in the row of a sample without
// provenance (a model row merged into a measured campaign), which is how the
// reader tells it has none.
func metaCols(cols ...column) []column {
	for i, c := range cols {
		cols[i].write = func(w *rowWrite, s *Sample) {
			if s.HasSeriesMeta() {
				c.write(w, s)
			}
		}
		cols[i].same = func(a, b *Sample) bool { return a.HasSeriesMeta() == b.HasSeriesMeta() && c.same(a, b) }
	}
	return cols
}

// cfgVars are the variables of the configuration columns: a configuration's
// cells are kept in this order on both sides.
var cfgVars = func() []env.VarName {
	vars := env.Names()
	if len(vars) > maxCfgVars {
		panic("dataset: more configuration variables than a cfgKey holds")
	}
	return vars
}()

// cfgCols are the configuration columns, one per variable, named by the
// variable in lower case: written as the configuration's value of it (see
// rowWrite.config), read back as the id of the cell (see cfgCell and
// finish).
func cfgCols() []column {
	cols := make([]column, len(cfgVars))
	for k, v := range cfgVars {
		cols[k] = column{name: strings.ToLower(string(v)), group: groupBase,
			write: func(w *rowWrite, _ *Sample) { w.b = append(w.b, w.arena[w.cfg[k]:w.cfg[k+1]]...) },
			read:  func(p *CSVReader, cell string) error { p.cfgCell(k, cell); return nil }}
	}
	return cols
}

// groupNeeded returns the highest column group any sample needs.
func (d *Dataset) groupNeeded() colGroup {
	need := groupBase
	for _, s := range d.Samples {
		switch {
		case s.HasSeriesMeta():
			return groupMeta
		case need < groupSource && s.SourceName() != SourceModel:
			need = groupSource
		}
	}
	return need
}

// rowWrite is the writer's state: the rows appended since the last flush,
// of which the last, the row above, stays in b across a flush, with where
// its cells lie from its start; and every distinct configuration's cells,
// rendered once per file into one arena.
type rowWrite struct {
	b     []byte
	above int
	cells []span
	prev  *Sample // the row above's sample; nil before the first row

	// The current sample's configuration cells: cell k is
	// arena[cfg[k]:cfg[k+1]]. ends holds where every configuration's cells
	// end in arena, one configuration after another, after a 0; configs
	// where each configuration's start in ends.
	cfg     []int32
	arena   []byte
	ends    []int32
	configs map[env.Config]int
}

type span struct{ from, to int }

// config makes c the current sample's configuration.
func (w *rowWrite) config(c env.Config) {
	at, ok := w.configs[c]
	if !ok {
		at = len(w.ends)
		for _, v := range cfgVars {
			from := len(w.arena)
			if w.arena = c.AppendValue(w.arena, v); needsQuotes(w.arena[from:]) {
				w.arena = appendCell(w.arena[:from], c.Value(v))
			}
			w.ends = append(w.ends, int32(len(w.arena)))
		}
		w.configs[c] = at
	}
	w.cfg = w.ends[at-1 : at+len(cfgVars)]
}

// flushAt is the size at which WriteCSV hands its rows to the io.Writer.
const flushAt = 64 << 10

// WriteCSV streams the dataset in the study's tabular format: the base
// columns, plus every optional group up to the highest one a sample needs
// (see colGroup). The output is what encoding/csv writes for the same cells.
// A cell the row above shares (column.same) is copied from it: a setting's
// cells are rendered once per run of its rows, a configuration's once per
// file, and the runtimes on every row.
func (d *Dataset) WriteCSV(out io.Writer) error {
	need := d.groupNeeded()
	cols := make([]*column, 0, len(columns))
	for i := range columns {
		if columns[i].group <= need {
			cols = append(cols, &columns[i])
		}
	}
	w := rowWrite{b: make([]byte, 0, flushAt+1024), cells: make([]span, len(cols)),
		ends: []int32{0}, configs: make(map[env.Config]int)}
	for i, c := range cols {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = append(w.b, c.name...)
	}
	w.b = append(w.b, '\n')
	for _, s := range d.Samples {
		row := len(w.b)
		w.config(s.Config)
		for i, c := range cols {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			at := len(w.b)
			if w.prev != nil && c.same != nil && c.same(w.prev, s) {
				cell := w.cells[i]
				w.b = append(w.b, w.b[w.above+cell.from:w.above+cell.to]...)
			} else {
				c.write(&w, s)
			}
			w.cells[i] = span{at - row, len(w.b) - row}
		}
		w.b = append(w.b, '\n')
		w.above, w.prev = row, s
		if len(w.b) >= flushAt {
			if _, err := out.Write(w.b[:row]); err != nil {
				return err
			}
			w.b, w.above = w.b[:copy(w.b, w.b[row:])], 0
		}
	}
	_, err := out.Write(w.b)
	return err
}

// needsQuotes reports whether encoding/csv quotes cell: when it is `\.`,
// holds a comma, a quote or a line break, or starts with a space.
func needsQuotes[T string | []byte](cell T) bool {
	for i := 0; i < len(cell); i++ {
		if c := cell[i]; c == ',' || c == '"' || c == '\r' || c == '\n' {
			return true
		}
	}
	switch {
	case len(cell) == 0:
		return false
	case len(cell) == 2 && cell[0] == '\\' && cell[1] == '.':
		return true
	case cell[0] < utf8.RuneSelf:
		return unicode.IsSpace(rune(cell[0]))
	}
	var head [utf8.UTFMax]byte
	r, _ := utf8.DecodeRune(head[:copy(head[:], cell)])
	return unicode.IsSpace(r)
}

// appendCell appends cell as encoding/csv writes it: verbatim, or between
// double quotes with its quotes doubled where needsQuotes says so.
func appendCell(b []byte, cell string) []byte {
	if !needsQuotes(cell) {
		return append(b, cell...)
	}
	b = append(b, '"')
	for i := 0; i < len(cell); i++ {
		if cell[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, cell[i])
	}
	return append(b, '"')
}

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', 10, 64) }

// resolveHeader maps a file's header to the column table by name, in any
// order. Unknown and duplicate names are rejected, and every base column must
// be present.
func resolveHeader(header []string) ([]*column, error) {
	cols := make([]*column, len(header))
	for i, name := range header {
		at := slices.IndexFunc(columns, func(c column) bool { return c.name == name })
		if at < 0 {
			return nil, fmt.Errorf("dataset: unknown column %q in header", name)
		}
		if slices.Contains(cols[:i], &columns[at]) {
			return nil, fmt.Errorf("dataset: duplicate column %q in header", name)
		}
		cols[i] = &columns[at]
	}
	for i := range columns {
		if c := &columns[i]; c.group == groupBase && !slices.Contains(cols, c) {
			return nil, fmt.Errorf("dataset: header lacks column %q", c.name)
		}
	}
	return cols, nil
}

// A CSVReader parses datasets written by WriteCSV. Across the files it reads
// it keeps each distinct text and configuration cell once, parses each
// distinct (machine, configuration cells) once, and carves samples from
// blocks that grow with what it has read: the segments of one checkpointed
// campaign, read through one CSVReader, parse each configuration once, not
// once per setting. A CSVReader is not safe for concurrent use.
type CSVReader struct {
	rec recordReader

	// The row being read: its sample, which starts as a copy of the row
	// above's (nil on a file's first row), the row above's cells, the id of
	// each configuration cell (the configuration parses only with the row's
	// machine) and how many of the three provenance cells are set.
	s, prev *Sample
	above   record
	key     cfgKey
	metaSet int

	cfgIDs   map[cfgCellKey]int32
	cfgCells []string // the cell of configuration cell id i+1
	configs  map[cfgKey]env.Config
	assign   []env.Assignment // a first-seen configuration's cells
	strs     map[string]string
	block    []Sample
	carved   int
}

// maxCfgVars bounds the configuration variables, so that a cfgKey is a
// small fixed-size value: keying a configuration allocates nothing.
const maxCfgVars = 7

// cfgKey is a configuration as the reader keys it: the row's machine, and
// for each of cfgVars the id of the row's cell.
type cfgKey struct {
	arch topology.Arch
	ids  [maxCfgVars]int32
}

// cfgCellKey is one configuration cell: the variable cfgVars[k], as written.
type cfgCellKey struct {
	k    int
	cell string
}

// NewCSVReader returns a reader that has seen nothing yet.
func NewCSVReader() *CSVReader {
	return &CSVReader{cfgIDs: make(map[cfgCellKey]int32),
		configs: make(map[cfgKey]env.Config), strs: make(map[string]string)}
}

// intern returns the reader's one copy of cell. The cell is a view of the
// record, which the next record overwrites: whatever a sample keeps goes
// through here.
func (p *CSVReader) intern(cell string) string {
	if s, ok := p.strs[cell]; ok {
		return s
	}
	s := strings.Clone(cell)
	p.strs[s] = s
	return s
}

// cfgCell sets the row's cell of the variable cfgVars[k]: its id, numbered
// from 1 in first-seen order and kept with a copy of the cell.
func (p *CSVReader) cfgCell(k int, cell string) {
	id, ok := p.cfgIDs[cfgCellKey{k, cell}]
	if !ok {
		kept := strings.Clone(cell)
		p.cfgCells = append(p.cfgCells, kept)
		id = int32(len(p.cfgCells))
		p.cfgIDs[cfgCellKey{k, kept}] = id
	}
	p.key.ids[k] = id
}

// next starts the next row on a sample carved from the current block, a
// copy of the row above's if there is one. Blocks double up to 4,096
// samples, so a checkpoint segment of a few hundred rows and a campaign of
// 244k each take a handful of allocations.
func (p *CSVReader) next() {
	if len(p.block) == 0 {
		p.block = make([]Sample, min(max(p.carved, 16), 4096))
	}
	p.s, p.block = &p.block[0], p.block[1:]
	p.carved++
	if p.prev != nil {
		*p.s = *p.prev
	}
	p.metaSet = 0
}

// finish settles what needs the whole row: the machine, the configuration,
// and the all-or-nothing provenance cells. A configuration is parsed the
// first time its machine and cells occur.
func (p *CSVReader) finish() error {
	p.key.arch = p.s.Arch
	cfg, ok := p.configs[p.key]
	if !ok {
		m, err := topology.Get(p.s.Arch)
		if err != nil {
			return err
		}
		p.assign = p.assign[:0]
		for k, id := range p.key.ids[:len(cfgVars)] { // every base column is read
			p.assign = append(p.assign, env.Assignment{Name: cfgVars[k], Value: p.cfgCells[id-1]})
		}
		if cfg, err = env.ParseAssignments(m, p.assign); err != nil {
			return fmt.Errorf("config: %w", err)
		}
		p.configs[p.key] = cfg
	}
	p.s.Config = cfg
	if p.metaSet == 0 {
		p.s.RepsRun, p.s.CoV, p.s.CIRel = 0, 0, 0
	} else if p.metaSet != 3 || p.s.RepsRun < 1 {
		return errors.New("reps, cov and ci must be set together, reps positive")
	}
	return nil
}

// ReadCSV parses a dataset previously written by WriteCSV with a fresh
// CSVReader.
func ReadCSV(r io.Reader) (*Dataset, error) { return NewCSVReader().ReadCSV(r) }

// ReadCSV parses a dataset previously written by WriteCSV, resolving columns
// by header name. Files without an optional group — every CSV produced before
// the group existed — read back with its fields unset (Source defaulting to
// "model"). The rows stream through one record reader (see recordReader),
// which rejects what encoding/csv rejects, rows of uneven length included.
// A cell with the bytes of the same column's cell in the row above keeps the
// value read from that: a setting's cells are parsed once per run of its
// rows. The returned dataset has passed Validate.
func (p *CSVReader) ReadCSV(r io.Reader) (*Dataset, error) {
	rec := &p.rec
	rec.reset(r)
	err := rec.read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: empty file")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	header := make([]string, len(rec.ends))
	for i := range header {
		header[i] = rec.cell(i)
	}
	cols, err := resolveHeader(header)
	if err != nil {
		return nil, err
	}
	p.prev, p.key = nil, cfgKey{}
	d := &Dataset{}
	for ln := 2; ; ln++ {
		err := rec.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		p.next()
		for i, c := range cols {
			cell := rec.cell(i)
			if c.group == groupMeta && cell != "" {
				p.metaSet++
			}
			// A blank provenance cell means the row has none (see finish).
			if c.read == nil || p.prev != nil && cell == p.above.cell(i) || cell == "" && c.group == groupMeta {
				continue
			}
			if err := c.read(p, cell); err != nil {
				return nil, fmt.Errorf("dataset: row %d %s: %w", ln, c.name, err)
			}
		}
		if err := p.finish(); err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", ln, err)
		}
		p.above.buf = append(p.above.buf[:0], rec.buf...)
		p.above.ends = append(p.above.ends[:0], rec.ends...)
		p.prev = p.s
		d.Samples = append(d.Samples, p.s)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
