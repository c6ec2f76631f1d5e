package report

import (
	"io"
	"math"
	"strconv"

	"omptune/internal/core"
	"omptune/internal/dataset"
)

// CompareWithPaper prints core.Verdicts of ds, the executable form of
// EXPERIMENTS.md: each shape claim with the paper's value, the dataset's,
// the margin to the claim's threshold, and "ok", "DEVIATES", or "n/a" where
// the dataset lacks what the claim needs. A value the paper or the dataset
// does not give prints as "-".
func CompareWithPaper(w io.Writer, ds *dataset.Dataset) error {
	p, t := table(w, "verdict\tpaper\tmeasured\tmargin\tstatus\n")
	for _, v := range core.Verdicts(core.NewFrame(ds)) {
		status := "ok"
		if v.NA {
			status = "n/a"
		} else if !v.Holds {
			status = "DEVIATES"
		}
		p.s(v.Name)
		for _, x := range [...]float64{v.Paper, v.Value, v.Margin} {
			if p.s("\t"); math.IsNaN(x) {
				p.s("-")
			} else {
				p.buf = strconv.AppendFloat(p.buf, x, 'g', 6, 64)
			}
		}
		p.s("\t", status, "\n")
	}
	return p.columns(t, 2)
}
