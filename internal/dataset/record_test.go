package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
	"slices"
	"strings"
	"testing"
)

// readRecords reads records until the end of input or the first error, with
// encoding/csv (the reference) or with the record reader over in.
func readRecords(in io.Reader, reference bool) (records [][]string, err error) {
	if reference {
		cr := csv.NewReader(in)
		for {
			rec, err := cr.Read()
			if err != nil {
				return records, err
			}
			records = append(records, rec)
		}
	}
	var rr recordReader
	rr.reset(in)
	for {
		if err := rr.read(); err != nil {
			return records, err
		}
		// The cells are views until the next read: copy them out.
		rec := make([]string, len(rr.ends))
		for i := range rec {
			rec[i] = strings.Clone(rr.cell(i))
		}
		records = append(records, rec)
	}
}

// recordReaderSeeds cover each rule of the dialect at least once.
var recordReaderSeeds = []string{
	"a,b\r\nc,d\r\n",                     // CRLF line ends
	"a,b\n\n\nc,d\n\r\n",                 // blank lines, one of them CRLF
	"a,b\nc,d",                           // no newline at the end
	"a,b\nc,d\r",                         // \r before the end of input
	"a,b\n\"c\r\nd\ne\",f\n",             // a quoted cell over three lines
	"a,b\n\"say \"\"hi\"\"\",\"\"\"\"\n", // doubled quotes
	"a,b\nc\"d,e\n",                      // a bare quote
	"a,b\nc,d,e\n",                       // too many fields
	"a,b\nc\n",                           // too few
	"\"a,1\",\"b\"\"\"\nc,d\n",           // a quoted header
	"a,b\n\"c\"d,e\n",                    // a quote inside a quoted cell
	"a,b\n\"c,d\n",                       // a quoted cell the input ends in
	"a,\"\"\n,\n",                        // empty cells, quoted and not
	"\n\n",                               // blank lines only
	"",
}

// FuzzRecordReader: on any input the record reader and encoding/csv both
// read the same records and stop with the same error, or both read to the
// end. Reading through a 16-byte bufio.Reader also takes the path for lines
// longer than the buffer.
func FuzzRecordReader(f *testing.F) {
	for _, s := range recordReaderSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readRecords(bytes.NewReader(data), true)
		for _, in := range []io.Reader{bytes.NewReader(data), bufio.NewReaderSize(bytes.NewReader(data), 16)} {
			got, gotErr := readRecords(in, false)
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%q: records\n got %q\nwant %q", data, got, want)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: after %d records, error %q, encoding/csv %q", data, len(got), gotErr, wantErr)
			}
		}
	})
}
