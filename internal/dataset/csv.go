package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

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

// column is one CSV column, in both directions: WriteCSV renders a sample's
// cell with write, ReadCSV finds the column by its header name and parses the
// cell with read. A nil read marks a column derived from the others, which
// reading recomputes instead of trusting.
type column struct {
	name  string
	group colGroup
	write func(s *Sample) string
	read  func(p *rowParse, cell string) error
}

// rowParse is the reader's state for one row: the sample being filled, plus
// what only the whole row settles — the environment its configuration parses
// from (which needs the row's machine) and how many of the three provenance
// cells are set.
type rowParse struct {
	s       *Sample
	environ []string
	metaSet int
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
			func(s *Sample) string { return strconv.Itoa(s.Threads) },
			func(p *rowParse, cell string) (err error) { p.s.Threads, err = strconv.Atoi(cell); return err }},
		floatCol("scale", groupBase, func(s *Sample) *float64 { return &s.Scale }),
	},
	cfgCols(groupBase, env.Names()),
	[]column{
		floatCol("runtime_0", groupBase, func(s *Sample) *float64 { return &s.Runtimes[0] }),
		floatCol("runtime_1", groupBase, func(s *Sample) *float64 { return &s.Runtimes[1] }),
		floatCol("runtime_2", groupBase, func(s *Sample) *float64 { return &s.Runtimes[2] }),
		floatCol("runtime_3", groupBase, func(s *Sample) *float64 { return &s.Runtimes[3] }),
		floatCol("default_runtime", groupBase, func(s *Sample) *float64 { return &s.DefaultRuntime }),
		{"speedup", groupBase, func(s *Sample) string { return fmt1(s.Speedup()) }, nil},
		{"optimal", groupBase, func(s *Sample) string { return strconv.FormatBool(s.Optimal()) }, nil},

		{"source", groupSource, (*Sample).SourceName,
			func(p *rowParse, cell string) error {
				if cell == "" {
					return errors.New("empty")
				}
				p.s.Source = cell
				return nil
			}},
	},
	cfgCols(groupNested, env.NestedNames()),
	[]column{
		{"reps", groupMeta,
			func(s *Sample) string { return strconv.Itoa(s.RepsRun) },
			func(p *rowParse, cell string) (err error) { p.s.RepsRun, err = strconv.Atoi(cell); return err }},
		floatCol("cov", groupMeta, func(s *Sample) *float64 { return &s.CoV }),
		floatCol("ci", groupMeta, func(s *Sample) *float64 { return &s.CIRel }),
	},
)

func textCol(name string, field func(*Sample) *string) column {
	return column{name, groupBase,
		func(s *Sample) string { return *field(s) },
		func(p *rowParse, cell string) error { *field(p.s) = cell; return nil }}
}

func floatCol(name string, g colGroup, field func(*Sample) *float64) column {
	return column{name, g,
		func(s *Sample) string { return fmt1(*field(s)) },
		func(p *rowParse, cell string) (err error) {
			*field(p.s), err = strconv.ParseFloat(cell, 64)
			return err
		}}
}

// cfgCols are the configuration columns of the variables vars, one each,
// named by the variable in lower case: written as the configuration's value
// of it, read back as the environment entry "VARIABLE=cell" for env.Parse.
func cfgCols(g colGroup, vars []env.VarName) []column {
	cols := make([]column, len(vars))
	for i, v := range vars {
		cols[i] = column{strings.ToLower(string(v)), g,
			func(s *Sample) string { return s.Config.Value(v) },
			func(p *rowParse, cell string) error { p.environ = append(p.environ, string(v)+"="+cell); return nil }}
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

// WriteCSV streams the dataset in the study's tabular format: the base
// columns, plus every optional group up to the highest one a sample needs
// (see colGroup).
func (d *Dataset) WriteCSV(w io.Writer) error {
	need := d.groupNeeded()
	var cols []*column
	for i := range columns {
		if columns[i].group <= need {
			cols = append(cols, &columns[i])
		}
	}
	row := make([]string, len(cols))
	for i, c := range cols {
		row[i] = c.name
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(row); err != nil {
		return err
	}
	for _, s := range d.Samples {
		for i, c := range cols {
			row[i] = c.write(s)
			// What the reader takes a blank cell for: an unset nesting limit,
			// and the provenance of a sample without any (a model row merged
			// into a measured campaign).
			if c.group == groupNested && row[i] == "0" || c.group == groupMeta && !s.HasSeriesMeta() {
				row[i] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

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

// finish settles what needs the whole row: the machine, the configuration,
// and the all-or-nothing provenance cells.
func (p *rowParse) finish() error {
	m, err := topology.Get(p.s.Arch)
	if err != nil {
		return err
	}
	if p.s.Config, err = env.Parse(m, p.environ); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if p.metaSet != 0 && (p.metaSet != 3 || p.s.RepsRun < 1) {
		return errors.New("reps, cov and ci must be set together, reps positive")
	}
	return nil
}

// ReadCSV parses a dataset previously written by WriteCSV, resolving columns
// by header name. Files without an optional group — every CSV produced before
// the group existed — read back with its fields unset (Source defaulting to
// "model"). The returned dataset has passed Validate.
func ReadCSV(r io.Reader) (*Dataset, error) {
	rows, err := csv.NewReader(r).ReadAll() // also rejects rows of uneven length
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty file")
	}
	cols, err := resolveHeader(rows[0])
	if err != nil {
		return nil, err
	}
	d := &Dataset{Samples: make([]*Sample, 0, len(rows)-1)}
	var p rowParse
	for ln, row := range rows[1:] {
		p = rowParse{s: &Sample{}, environ: p.environ[:0]}
		for i, cell := range row {
			c := cols[i]
			// A blank nesting or provenance cell means the row has none.
			if c.read == nil || cell == "" && c.group >= groupNested {
				continue
			}
			if err := c.read(&p, cell); err != nil {
				return nil, fmt.Errorf("dataset: row %d %s: %w", ln+2, c.name, err)
			}
			if c.group == groupMeta {
				p.metaSet++
			}
		}
		if err := p.finish(); err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", ln+2, err)
		}
		d.Samples = append(d.Samples, p.s)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func fmt1(f float64) string { return strconv.FormatFloat(f, 'g', 10, 64) }
