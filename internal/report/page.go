package report

import (
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// page is one section's text, appended to buf and written by flush with one
// Write call. Write hands its page to every section as the io.Writer, so
// the sections share one buffer; a renderer called on another writer
// starts a page of its own.
type page struct {
	w   io.Writer
	buf []byte
	// A table's '\t'-terminated cells: width in runes and laid out, and
	// the index of each line's first cell (columns).
	cells, widths, lines []int
}

func pageOf(w io.Writer) *page {
	if p, ok := w.(*page); ok {
		return p
	}
	return &page{w: w}
}

// Write writes b past the page.
func (p *page) Write(b []byte) (int, error) { return p.w.Write(b) }

func (p *page) flush() error {
	if len(p.buf) == 0 {
		return nil
	}
	_, err := p.w.Write(p.buf)
	p.buf = p.buf[:0]
	return err
}

func (p *page) s(ss ...string) *page {
	for _, s := range ss {
		p.buf = append(p.buf, s...)
	}
	return p
}

func (p *page) d(n int) *page {
	p.buf = strconv.AppendInt(p.buf, int64(n), 10)
	return p
}

// num appends x as fmt's %.<prec><verb> prints it, verb 'f' or 'g'.
func (p *page) num(x float64, verb byte, prec int) *page {
	if math.IsInf(x, 1) {
		return p.s("Inf") // fmt drops the sign strconv writes
	}
	p.buf = strconv.AppendFloat(p.buf, x, verb, prec, 64)
	return p
}

// lower appends strings.ToLower(s).
func (p *page) lower(s string) *page {
	for _, r := range s {
		p.buf = utf8.AppendRune(p.buf, unicode.ToLower(r))
	}
	return p
}

// sep is the separator before the i-th item of a list.
func sep(i int, s string) string {
	if i == 0 {
		return ""
	}
	return s
}

// table starts a table on w's page with its header line; p.columns(t, …)
// lays it out.
func table(w io.Writer, header string) (p *page, t int) {
	p = pageOf(w)
	return p, len(p.s(header).buf) - len(header)
}

// columns lays out the table p.buf[t:], which ends in '\n', as
// text/tabwriter.NewWriter(w, 2, 4, padding, ' ', 0) does, and flushes the
// page. A '\t'-terminated cell is padded with spaces to its column block's
// width: the block's widest cell in runes plus padding, at least 2. The
// k-th column's blocks are the maximal runs of consecutive lines that have
// a k-th terminated cell; the text after a line's last tab is in none.
func (p *page) columns(t, padding int) error {
	p.cells, p.widths, p.lines = p.cells[:0], p.widths[:0], append(p.lines[:0], 0)
	cell := t
	for i := t; i < len(p.buf); i++ {
		switch p.buf[i] {
		case '\t':
			p.cells = append(p.cells, utf8.RuneCount(p.buf[cell:i]))
		case '\n':
			p.lines = append(p.lines, len(p.cells))
		default:
			continue
		}
		cell = i + 1
	}
	// Down the lines, a cell's width grows to the widest of its block so
	// far (up is the same column a line above); then, up the lines, each
	// block's last line hands the block's width to the lines above.
	lines := len(p.lines) - 1
	for l := range lines {
		for c := p.lines[l]; c < p.lines[l+1]; c++ {
			w := max(2, p.cells[c]+padding)
			if up := c - p.lines[l] + p.lines[max(l-1, 0)]; l > 0 && up < p.lines[l] {
				w = max(w, p.widths[up])
			}
			p.widths = append(p.widths, w)
		}
	}
	for l := lines - 2; l >= 0; l-- {
		for c, below := p.lines[l], p.lines[l+1]; c < p.lines[l+1] && below < p.lines[l+2]; c, below = c+1, below+1 {
			p.widths[c] = p.widths[below]
		}
	}
	out, c := len(p.buf), 0
	for i := t; i < out; i++ {
		if p.buf[i] != '\t' {
			p.buf = append(p.buf, p.buf[i])
			continue
		}
		for range p.widths[c] - p.cells[c] {
			p.buf = append(p.buf, ' ')
		}
		c++
	}
	p.buf = append(p.buf[:t], p.buf[out:]...)
	return p.flush()
}
