// Package trace records experiment outputs — learning curves and
// prediction time-series — and serialises them as CSV, the format the
// repository's figure-regeneration commands emit.
package trace

import (
	"fmt"
	"io"
	"math"
)

// CurvePoint is one validation measurement on a learning curve.
type CurvePoint struct {
	Epoch   int
	TimeS   float64 // virtual elapsed training time (Fig. 3a x-axis)
	RMSEdB  float64 // validation RMSE in dB (Fig. 3a y-axis)
	TrainMS float64 // mean training loss of the epoch (normalised scale)
}

// LearningCurve is one scheme's Fig. 3a series.
type LearningCurve struct {
	Scheme    string
	Points    []CurvePoint
	Converged bool    // hit the 2.7 dB target before the epoch budget
	FinalRMSE float64 // last validation RMSE (dB)
}

// Add appends a point and updates the summary fields.
func (c *LearningCurve) Add(p CurvePoint) {
	c.Points = append(c.Points, p)
	c.FinalRMSE = p.RMSEdB
}

// BestRMSE returns the minimum validation RMSE seen, or +Inf when empty.
func (c *LearningCurve) BestRMSE() float64 {
	best := math.Inf(1)
	for _, p := range c.Points {
		if p.RMSEdB < best {
			best = p.RMSEdB
		}
	}
	return best
}

// TimeToTarget returns the virtual time at which the curve first reached
// the target RMSE and true, or 0 and false if it never did.
func (c *LearningCurve) TimeToTarget(targetDB float64) (float64, bool) {
	for _, p := range c.Points {
		if p.RMSEdB <= targetDB {
			return p.TimeS, true
		}
	}
	return 0, false
}

// WriteCurvesCSV writes one or more learning curves in long format:
// scheme,epoch,time_s,val_rmse_db,train_loss.
func WriteCurvesCSV(w io.Writer, curves []*LearningCurve) error {
	if _, err := fmt.Fprintln(w, "scheme,epoch,time_s,val_rmse_db,train_loss"); err != nil {
		return err
	}
	for _, c := range curves {
		for _, p := range c.Points {
			if _, err := fmt.Fprintf(w, "%s,%d,%.4f,%.4f,%.6f\n",
				c.Scheme, p.Epoch, p.TimeS, p.RMSEdB, p.TrainMS); err != nil {
				return err
			}
		}
	}
	return nil
}

// PredictionSeries is one scheme's Fig. 3b series: predicted power over a
// time window against the ground truth.
type PredictionSeries struct {
	Scheme  string
	TimeS   []float64
	PredDBm []float64
}

// PredictionTrace bundles the ground truth with any number of schemes'
// predictions over the same window.
type PredictionTrace struct {
	TimeS    []float64
	TruthDBm []float64
	Series   []PredictionSeries
}

// AddSeries appends a scheme's predictions; the length must match the
// trace window.
func (p *PredictionTrace) AddSeries(scheme string, pred []float64) error {
	if len(pred) != len(p.TimeS) {
		return fmt.Errorf("trace: series %q has %d points, window has %d",
			scheme, len(pred), len(p.TimeS))
	}
	p.Series = append(p.Series, PredictionSeries{Scheme: scheme, TimeS: p.TimeS, PredDBm: pred})
	return nil
}

// WriteCSV writes the trace in wide format:
// time_s,truth_dbm,<scheme1>,<scheme2>,...
func (p *PredictionTrace) WriteCSV(w io.Writer) error {
	header := "time_s,truth_dbm"
	for _, s := range p.Series {
		header += "," + s.Scheme
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for i := range p.TimeS {
		if _, err := fmt.Fprintf(w, "%.4f,%.4f", p.TimeS[i], p.TruthDBm[i]); err != nil {
			return err
		}
		for _, s := range p.Series {
			if _, err := fmt.Fprintf(w, ",%.4f", s.PredDBm[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Table is a small generic row-oriented table used for Table 1 style
// outputs.
type Table struct {
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(columns ...string) *Table { return &Table{Columns: columns} }

// AddRow appends a row; the cell count must match the columns.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("trace: row has %d cells, table has %d columns", len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// WriteCSV writes the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	for i, c := range t.Columns {
		sep := ","
		if i == len(t.Columns)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", c, sep); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			sep := ","
			if i == len(row)-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%s%s", cell, sep); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePretty renders the table with aligned columns for terminal output.
func (t *Table) WritePretty(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		for i, cell := range cells {
			pad := widths[i] - len(cell)
			sep := "  "
			if i == len(cells)-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%s%*s%s", cell, pad, "", sep); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
