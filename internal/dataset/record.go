package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// recordReader reads encoding/csv's default dialect: comma-separated cells,
// RFC 4180 quoting with "" for a quote inside a quoted cell, \r\n read as \n
// (inside quoted cells too), blank lines skipped, a \r before the end of
// input dropped, a quote inside an unquoted cell rejected, and every record
// as wide as the first. It accepts and rejects exactly what a csv.Reader
// with its default settings does, with the same error text.
//
// It streams lines from a bufio.Reader. A record that is one line without a
// quote is read in place; any other is unescaped into one reused buffer.
// Either way a cell is a view: it holds until the next read, so reading a
// record allocates nothing, and whatever outlives the record must be copied.
type recordReader struct {
	r      *bufio.Reader
	own    *bufio.Reader // reset to each input that is not a bufio.Reader already
	line   int           // lines read
	fields int           // the first record's width; 0 before it
	raw    []byte        // a line longer than the bufio.Reader's buffer
	rec    []byte        // a quoted record's cells, unescaped, each followed by a comma
	record               // the record: its line, or rec
}

// record is a record's cells: where each ends in buf, the next starting one
// byte later.
type record struct {
	buf  []byte
	ends []int
}

// The ways a record is malformed, worded as encoding/csv words them.
var (
	errBareQuote  = errors.New("bare \" in non-quoted-field")
	errQuote      = errors.New("extraneous or missing \" in quoted-field")
	errFieldCount = errors.New("wrong number of fields")
)

// parseError locates a malformed record as csv.ParseError does: the record's
// first line, and the line and byte column (from 1) of the fault.
type parseError struct {
	startLine, line, col int
	err                  error
}

func (e *parseError) Error() string {
	if e.err == errFieldCount {
		return fmt.Sprintf("record on line %d: %v", e.line, e.err)
	}
	if e.startLine != e.line {
		return fmt.Sprintf("record on line %d; parse error on line %d, column %d: %v", e.startLine, e.line, e.col, e.err)
	}
	return fmt.Sprintf("parse error on line %d, column %d: %v", e.line, e.col, e.err)
}

// reset starts reading in from its first line.
func (rr *recordReader) reset(in io.Reader) {
	br, ok := in.(*bufio.Reader)
	if !ok {
		if rr.own == nil {
			rr.own = bufio.NewReaderSize(in, 64<<10)
		} else {
			rr.own.Reset(in)
		}
		br = rr.own
	}
	rr.r, rr.line, rr.fields = br, 0, 0
}

// readLine returns the next line with its \n, \r\n folded to \n. The line
// is a view of the bufio.Reader's buffer, or of raw, until the next call.
// At the end of input it returns the last line with a nil error if it is not
// empty, then io.EOF.
func (rr *recordReader) readLine() ([]byte, error) {
	line, err := rr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		rr.raw = append(rr.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = rr.r.ReadSlice('\n')
			rr.raw = append(rr.raw, line...)
		}
		line = rr.raw
	}
	if n := len(line); n > 0 && err == io.EOF {
		err = nil
		if line[n-1] == '\r' { // a \r that ends the input is dropped
			line = line[:n-1]
		}
	}
	rr.line++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 if b ends in a line feed, else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// cell returns the record's cell i, a view of buf: a recordReader's holds
// until the next read.
func (r *record) cell(i int) string {
	from := 0
	if i > 0 {
		from = r.ends[i-1] + 1
	}
	if from == r.ends[i] {
		return ""
	}
	return unsafe.String(&r.buf[from], r.ends[i]-from)
}

// read reads the next record, skipping blank lines. It returns io.EOF when
// no record is left, and the input's own error if reading fails.
func (rr *recordReader) read() error {
	line, errRead := rr.readLine()
	for errRead == nil && len(line) == lengthNL(line) {
		line, errRead = rr.readLine()
	}
	if errRead == io.EOF {
		return io.EOF
	}
	start, err := rr.line, errRead
	rr.ends = rr.ends[:0]
	if bytes.IndexByte(line, '"') < 0 { // the cells are the line's comma-separated pieces
		rr.buf = line[:len(line)-lengthNL(line)]
		for i, c := range rr.buf {
			if c == ',' {
				rr.ends = append(rr.ends, i)
			}
		}
		rr.ends = append(rr.ends, len(rr.buf))
	} else {
		err = rr.unescape(line, errRead)
		rr.buf = rr.rec
	}
	if rr.fields == 0 {
		rr.fields = len(rr.ends)
	} else if len(rr.ends) != rr.fields && err == nil {
		err = &parseError{start, start, 1, errFieldCount}
	}
	return err
}

// unescape splits a record that holds a quote, from its first line on, into
// rec, reading more lines while a quoted cell runs on. errRead is the error
// that came with the line; the result is the first fault or read error.
func (rr *recordReader) unescape(line []byte, errRead error) error {
	rr.rec = rr.rec[:0]
	start, at, col := rr.line, rr.line, 1 // the record's first line; the cell's line and column
	end := func() { rr.ends, rr.rec = append(rr.ends, len(rr.rec)), append(rr.rec, ',') }
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			cell := line
			if i >= 0 {
				cell = cell[:i]
			} else {
				cell = cell[:len(cell)-lengthNL(cell)]
			}
			if j := bytes.IndexByte(cell, '"'); j >= 0 {
				return &parseError{start, rr.line, col + j, errBareQuote}
			}
			rr.rec = append(rr.rec, cell...)
			end()
			if i < 0 {
				return errRead
			}
			line, col = line[i+1:], col+i+1
			continue
		}
		// A quoted cell, which may run over several lines.
		line, col = line[1:], col+1
	quoted:
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				rr.rec = append(rr.rec, line[:i]...)
				line, col = line[i+1:], col+i+1
				switch {
				case len(line) > 0 && line[0] == '"': // "" is one quote
					rr.rec = append(rr.rec, '"')
					line, col = line[1:], col+1
				case len(line) > 0 && line[0] == ',': // the cell ends
					line, col = line[1:], col+1
					end()
					break quoted
				case len(line) == lengthNL(line): // the record ends
					end()
					return errRead
				default:
					return &parseError{start, rr.line, col - 1, errQuote}
				}
			case len(line) > 0: // the line ends inside the cell
				rr.rec = append(rr.rec, line...)
				if errRead != nil {
					return errRead
				}
				col += len(line)
				if line, errRead = rr.readLine(); len(line) > 0 {
					at, col = at+1, 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default: // the input ends inside the cell
				if errRead == nil {
					return &parseError{start, at, col, errQuote}
				}
				end()
				return errRead
			}
		}
	}
}
