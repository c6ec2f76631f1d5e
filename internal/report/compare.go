package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"text/tabwriter"

	"omptune/internal/core"
	"omptune/internal/dataset"
)

// CompareWithPaper prints core.Verdicts of ds, the executable form of
// EXPERIMENTS.md: each shape claim with the paper's value, the dataset's,
// the margin to the claim's threshold, and "ok", "DEVIATES", or "n/a" where
// the dataset lacks what the claim needs. A value the paper or the dataset
// does not give prints as "-".
func CompareWithPaper(w io.Writer, ds *dataset.Dataset) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "verdict\tpaper\tmeasured\tmargin\tstatus")
	num := func(x float64) string {
		if math.IsNaN(x) {
			return "-"
		}
		return strconv.FormatFloat(x, 'g', 6, 64)
	}
	for _, v := range core.Verdicts(core.NewFrame(ds)) {
		status := "ok"
		if v.NA {
			status = "n/a"
		} else if !v.Holds {
			status = "DEVIATES"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", v.Name, num(v.Paper), num(v.Value), num(v.Margin), status)
	}
	return tw.Flush()
}
