package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestLearningCurveSummaries(t *testing.T) {
	c := &LearningCurve{Scheme: "test"}
	c.Add(CurvePoint{Epoch: 1, TimeS: 1, RMSEdB: 5})
	c.Add(CurvePoint{Epoch: 2, TimeS: 2, RMSEdB: 3})
	c.Add(CurvePoint{Epoch: 3, TimeS: 3, RMSEdB: 4})
	if c.FinalRMSE != 4 {
		t.Fatalf("FinalRMSE = %g", c.FinalRMSE)
	}
	if c.BestRMSE() != 3 {
		t.Fatalf("BestRMSE = %g", c.BestRMSE())
	}
	ts, ok := c.TimeToTarget(3.5)
	if !ok || ts != 2 {
		t.Fatalf("TimeToTarget = %g, %v", ts, ok)
	}
	if _, ok := c.TimeToTarget(1); ok {
		t.Fatal("unreached target reported as reached")
	}
}

func TestBestRMSEEmpty(t *testing.T) {
	c := &LearningCurve{}
	if !math.IsInf(c.BestRMSE(), 1) {
		t.Fatal("empty curve best RMSE should be +Inf")
	}
}

func TestWriteCurvesCSV(t *testing.T) {
	a := &LearningCurve{Scheme: "A"}
	a.Add(CurvePoint{Epoch: 1, TimeS: 0.5, RMSEdB: 4.25, TrainMS: 0.1})
	b := &LearningCurve{Scheme: "B"}
	b.Add(CurvePoint{Epoch: 1, TimeS: 0.7, RMSEdB: 3.5, TrainMS: 0.2})

	var buf bytes.Buffer
	if err := WriteCurvesCSV(&buf, []*LearningCurve{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if lines[0] != "scheme,epoch,time_s,val_rmse_db,train_loss" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "A,1,0.5000,4.2500") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestPredictionTraceCSV(t *testing.T) {
	tr := &PredictionTrace{
		TimeS:    []float64{1, 2},
		TruthDBm: []float64{-20, -21},
	}
	if err := tr.AddSeries("RF-only", []float64{-19, -22}); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddSeries("Image+RF", []float64{-20, -21}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_s,truth_dbm,RF-only,Image+RF" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
}

func TestPredictionTraceRejectsBadSeries(t *testing.T) {
	tr := &PredictionTrace{TimeS: []float64{1, 2}}
	if err := tr.AddSeries("short", []float64{1}); err == nil {
		t.Fatal("short series accepted")
	}
}

func TestTableCSVAndPretty(t *testing.T) {
	tab := NewTable("metric", "1x1", "40x40")
	if err := tab.AddRow("leakage", "0.353", "0.296"); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("success", "0.00", "1.00"); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "metric,1x1,40x40\nleakage,0.353,0.296\n") {
		t.Fatalf("CSV = %q", csv.String())
	}
	var pretty bytes.Buffer
	if err := tab.WritePretty(&pretty); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(pretty.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("pretty has %d lines", len(lines))
	}
	if !strings.Contains(lines[1], "leakage") || !strings.Contains(lines[1], "0.353") {
		t.Fatalf("pretty row = %q", lines[1])
	}
}

func TestTableRejectsRaggedRow(t *testing.T) {
	tab := NewTable("a", "b")
	if err := tab.AddRow("only-one"); err == nil {
		t.Fatal("ragged row accepted")
	}
}
