package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	groupNested                 // nesting-axis configuration: any nested sample
	groupMeta                   // series noise provenance: any sample carrying it
)

// column is one CSV column, in both directions: WriteCSV appends a sample's
// cell to the row with write, ReadCSV finds the column by its header name and
// parses the cell with read. A nil read marks a column derived from the
// others, which reading recomputes instead of trusting.
type column struct {
	name  string
	group colGroup
	write func(w *rowWrite, s *Sample)
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
		{"threads", groupBase,
			func(w *rowWrite, s *Sample) { w.b = strconv.AppendInt(w.b, int64(s.Threads), 10) },
			func(p *CSVReader, cell string) (err error) { p.s.Threads, err = strconv.Atoi(cell); return err }},
		floatCol("scale", groupBase, func(s *Sample) *float64 { return &s.Scale }),
	},
	cfgCols(groupBase, env.Names()),
	[]column{
		floatCol("runtime_0", groupBase, func(s *Sample) *float64 { return &s.Runtimes[0] }),
		floatCol("runtime_1", groupBase, func(s *Sample) *float64 { return &s.Runtimes[1] }),
		floatCol("runtime_2", groupBase, func(s *Sample) *float64 { return &s.Runtimes[2] }),
		floatCol("runtime_3", groupBase, func(s *Sample) *float64 { return &s.Runtimes[3] }),
		floatCol("default_runtime", groupBase, func(s *Sample) *float64 { return &s.DefaultRuntime }),
		{"speedup", groupBase, func(w *rowWrite, s *Sample) { w.b = appendFloat(w.b, s.Speedup()) }, nil},
		{"optimal", groupBase, func(w *rowWrite, s *Sample) { w.b = strconv.AppendBool(w.b, s.Optimal()) }, nil},

		{"source", groupSource,
			func(w *rowWrite, s *Sample) { w.b = append(w.b, quoted(s.SourceName())...) },
			func(p *CSVReader, cell string) error {
				if cell == "" {
					return errors.New("empty")
				}
				p.s.Source = p.intern(cell)
				return nil
			}},
	},
	cfgCols(groupNested, env.NestedNames()),
	[]column{
		{"reps", groupMeta,
			func(w *rowWrite, s *Sample) { w.b = strconv.AppendInt(w.b, int64(s.RepsRun), 10) },
			func(p *CSVReader, cell string) (err error) { p.s.RepsRun, err = strconv.Atoi(cell); return err }},
		floatCol("cov", groupMeta, func(s *Sample) *float64 { return &s.CoV }),
		floatCol("ci", groupMeta, func(s *Sample) *float64 { return &s.CIRel }),
	},
)

// cfgVars are the variables of the configuration columns, base then nested:
// a configuration's cells are kept in this order on both sides.
var cfgVars = slices.Concat(env.Names(), env.NestedNames())

// textCol is a string field, written quoted where CSV needs it and read back
// interned.
func textCol(name string, field func(*Sample) *string) column {
	return column{name, groupBase,
		func(w *rowWrite, s *Sample) { w.b = append(w.b, quoted(*field(s))...) },
		func(p *CSVReader, cell string) error { *field(p.s) = p.intern(cell); return nil }}
}

func floatCol(name string, g colGroup, field func(*Sample) *float64) column {
	return column{name, g,
		func(w *rowWrite, s *Sample) { w.b = appendFloat(w.b, *field(s)) },
		func(p *CSVReader, cell string) (err error) {
			*field(p.s), err = strconv.ParseFloat(cell, 64)
			return err
		}}
}

// cfgCols are the configuration columns of the variables vars, one each,
// named by the variable in lower case: written as the configuration's value
// of it, read back as the assignment of the cell to it (see finish).
func cfgCols(g colGroup, vars []env.VarName) []column {
	cols := make([]column, len(vars))
	for i, v := range vars {
		k := slices.Index(cfgVars, v)
		cols[i] = column{strings.ToLower(string(v)), g,
			func(w *rowWrite, _ *Sample) { w.b = append(w.b, w.cfg[k]...) },
			func(p *CSVReader, cell string) error { p.cfg = append(p.cfg, cfgCell{k, cell}); return nil }}
	}
	return cols
}

// groupNeeded returns the highest column group any sample needs. Dropping the
// nesting columns would collapse configurations that differ only in the
// nesting axis into indistinguishable rows.
func (d *Dataset) groupNeeded() colGroup {
	need := groupBase
	for _, s := range d.Samples {
		c := &s.Config
		switch {
		case s.HasSeriesMeta():
			return groupMeta
		case c.NumThreadsList != "" || c.MaxActiveLevels != 0 || c.ThreadLimit != 0:
			need = groupNested
		case need < groupSource && s.SourceName() != SourceModel:
			need = groupSource
		}
	}
	return need
}

// rowWrite is the writer's state: the rows appended since the last flush,
// and every distinct configuration's cells, rendered once per file.
type rowWrite struct {
	b       []byte
	cfg     []string // the current sample's configuration cells, in cfgVars order
	configs map[env.Config][]string
}

// flushAt is the size at which WriteCSV hands its rows to the io.Writer.
const flushAt = 64 << 10

// config makes c the current sample's configuration.
func (w *rowWrite) config(c env.Config) {
	cells, ok := w.configs[c]
	if !ok {
		cells = make([]string, len(cfgVars))
		for k, v := range cfgVars {
			cells[k] = quoted(c.Value(v))
		}
		w.configs[c] = cells
	}
	w.cfg = cells
}

// WriteCSV streams the dataset in the study's tabular format: the base
// columns, plus every optional group up to the highest one a sample needs
// (see colGroup). The output is what encoding/csv writes for the same cells.
func (d *Dataset) WriteCSV(out io.Writer) error {
	need := d.groupNeeded()
	var cols []*column
	for i := range columns {
		if columns[i].group <= need {
			cols = append(cols, &columns[i])
		}
	}
	w := rowWrite{b: make([]byte, 0, flushAt+1024), configs: make(map[env.Config][]string)}
	for i, c := range cols {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = append(w.b, c.name...)
	}
	w.b = append(w.b, '\n')
	for _, s := range d.Samples {
		w.config(s.Config)
		for i, c := range cols {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			at := len(w.b)
			c.write(&w, s)
			// What the reader takes a blank cell for: an unset nesting limit,
			// and the provenance of a sample without any (a model row merged
			// into a measured campaign).
			if c.group == groupNested && string(w.b[at:]) == "0" || c.group == groupMeta && !s.HasSeriesMeta() {
				w.b = w.b[:at]
			}
		}
		w.b = append(w.b, '\n')
		if len(w.b) >= flushAt {
			if _, err := out.Write(w.b); err != nil {
				return err
			}
			w.b = w.b[:0]
		}
	}
	_, err := out.Write(w.b)
	return err
}

// quoted returns cell as encoding/csv writes it: verbatim, or between double
// quotes with its quotes doubled when it is `\.`, holds a comma, a quote or a
// line break, or starts with a space.
func quoted(cell string) string {
	r, _ := utf8.DecodeRuneInString(cell)
	if cell == `\.` || strings.ContainsAny(cell, ",\"\r\n") || unicode.IsSpace(r) {
		return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
	}
	return cell
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
// it keeps each distinct text cell once, parses each distinct (machine,
// configuration cells) once, and carves samples from blocks that grow with
// what it has read: the segments of one checkpointed campaign, read through
// one CSVReader, parse each configuration once, not once per setting. A
// CSVReader is not safe for concurrent use.
type CSVReader struct {
	rec recordReader

	// The row being read: its sample, its configuration cells (which parse
	// only with the row's machine) and how many of the three provenance
	// cells are set.
	s       *Sample
	cfg     []cfgCell
	metaSet int

	key     []byte // the row's machine and configuration cells, the configs key
	configs map[string]env.Config
	assign  []env.Assignment // a first-seen configuration's interned cells
	strs    map[string]string
	block   []Sample
	carved  int
}

// cfgCell is one configuration cell: the variable cfgVars[k], as written.
// The cell is a view of the record, like every cell a column reads.
type cfgCell struct {
	k    int
	cell string
}

// NewCSVReader returns a reader that has seen nothing yet.
func NewCSVReader() *CSVReader {
	return &CSVReader{configs: make(map[string]env.Config), strs: make(map[string]string)}
}

// intern returns the reader's one copy of cell. The cell is a view of the
// record, which the next record overwrites: whatever a sample or a
// configuration keeps goes through here.
func (p *CSVReader) intern(cell string) string {
	if s, ok := p.strs[cell]; ok {
		return s
	}
	s := strings.Clone(cell)
	p.strs[s] = s
	return s
}

// next starts the next row on a zero sample carved from the current block.
// Blocks double up to 4,096 samples, so a checkpoint segment of a few
// hundred rows and a campaign of 244k each take a handful of allocations.
func (p *CSVReader) next() {
	if len(p.block) == 0 {
		p.block = make([]Sample, min(max(p.carved, 16), 4096))
	}
	p.s, p.block = &p.block[0], p.block[1:]
	p.carved++
	p.cfg, p.metaSet = p.cfg[:0], 0
}

// finish settles what needs the whole row: the machine, the configuration,
// and the all-or-nothing provenance cells. A configuration is parsed the
// first time its machine and cells occur; the cells are length-prefixed in
// the key, so no two different rows share one.
func (p *CSVReader) finish() error {
	p.key = appendKeyPart(p.key[:0], string(p.s.Arch))
	for _, c := range p.cfg {
		p.key = appendKeyPart(append(p.key, byte(c.k)), c.cell)
	}
	cfg, ok := p.configs[string(p.key)]
	if !ok {
		m, err := topology.Get(p.s.Arch)
		if err != nil {
			return err
		}
		p.assign = p.assign[:0]
		for _, c := range p.cfg {
			p.assign = append(p.assign, env.Assignment{Name: cfgVars[c.k], Value: p.intern(c.cell)})
		}
		if cfg, err = env.ParseAssignments(m, p.assign); err != nil {
			return fmt.Errorf("config: %w", err)
		}
		p.configs[string(p.key)] = cfg
	}
	p.s.Config = cfg
	if p.metaSet != 0 && (p.metaSet != 3 || p.s.RepsRun < 1) {
		return errors.New("reps, cov and ci must be set together, reps positive")
	}
	return nil
}

func appendKeyPart(key []byte, s string) []byte {
	return append(binary.AppendUvarint(key, uint64(len(s))), s...)
}

// ReadCSV parses a dataset previously written by WriteCSV with a fresh
// CSVReader.
func ReadCSV(r io.Reader) (*Dataset, error) { return NewCSVReader().ReadCSV(r) }

// ReadCSV parses a dataset previously written by WriteCSV, resolving columns
// by header name. Files without an optional group — every CSV produced before
// the group existed — read back with its fields unset (Source defaulting to
// "model"). The rows stream through one record reader (see recordReader),
// which rejects what encoding/csv rejects, rows of uneven length included.
// The returned dataset has passed Validate.
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
			// A blank nesting or provenance cell means the row has none.
			if c.read == nil || cell == "" && c.group >= groupNested {
				continue
			}
			if err := c.read(p, cell); err != nil {
				return nil, fmt.Errorf("dataset: row %d %s: %w", ln, c.name, err)
			}
			if c.group == groupMeta {
				p.metaSet++
			}
		}
		if err := p.finish(); err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", ln, err)
		}
		d.Samples = append(d.Samples, p.s)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
