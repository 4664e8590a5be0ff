package experiments

import (
	"fmt"

	"repro/internal/split"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Training-based ablations: unlike the analytic payload sweeps in
// ablation.go these actually train model variants and compare validation
// RMSE, quantifying two design choices the paper leaves open — the
// recurrent core and the wire precision.

// TrainAblationRow is one trained variant's outcome.
type TrainAblationRow struct {
	Setting   string
	FinalRMSE float64 // dB, last validation
	BestRMSE  float64 // dB, best validation seen
	VirtualS  float64 // total virtual training time
	Params    int     // trainable parameter count
	StepFLOPs float64 // estimated FLOPs per training step
}

// TrainAblationResult is a labelled set of trained variants.
type TrainAblationResult struct {
	Name string
	Rows []TrainAblationRow
}

// Table renders the result.
func (r *TrainAblationResult) Table() *trace.Table {
	t := trace.NewTable("setting", "final_rmse_db", "best_rmse_db", "virtual_s", "params", "step_mflops")
	for _, row := range r.Rows {
		if err := t.AddRow(
			row.Setting,
			fmt.Sprintf("%.3f", row.FinalRMSE),
			fmt.Sprintf("%.3f", row.BestRMSE),
			fmt.Sprintf("%.2f", row.VirtualS),
			fmt.Sprintf("%d", row.Params),
			fmt.Sprintf("%.2f", row.StepFLOPs/1e6),
		); err != nil {
			panic(err)
		}
	}
	return t
}

// runVariant trains one configured scheme over an ideal link and reports
// its row.
func (e *Env) runVariant(setting string, cfg split.Config) (TrainAblationRow, error) {
	model, err := split.NewModel(cfg, e.Data, e.Norm)
	if err != nil {
		return TrainAblationRow{}, err
	}
	tr := split.NewTrainer(model, e.Data, e.Split, split.IdealLink{})
	tr.ValBatch = e.Scale.ValBatch
	curve, err := tr.Run()
	if err != nil {
		return TrainAblationRow{}, err
	}
	params := 0
	for _, p := range model.Params() {
		params += p.Value.Size()
	}
	return TrainAblationRow{
		Setting:   setting,
		FinalRMSE: curve.FinalRMSE,
		BestRMSE:  curve.BestRMSE(),
		VirtualS:  curve.Points[len(curve.Points)-1].TimeS,
		Params:    params,
		StepFLOPs: model.StepFLOPs(),
	}, nil
}

// RunAblationRNNKind trains the 1-pixel Img+RF scheme with an LSTM and a
// GRU core.
func RunAblationRNNKind(env *Env) (*TrainAblationResult, error) {
	res := &TrainAblationResult{Name: "recurrent-core ablation (Img+RF, 1-pixel)"}
	for _, kind := range []split.RNNKind{split.RNNLSTM, split.RNNGRU} {
		cfg := env.schemeConfig(split.ImageRF, 40)
		cfg.RNN = kind
		row, err := env.runVariant(kind.String(), cfg)
		if err != nil {
			return nil, fmt.Errorf("rnn ablation %v: %w", kind, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RunAblationWirePrecision trains the 1-pixel Img+RF scheme with the cut
// layer round-tripped through the wire codec at each bit depth, plus the
// full-precision reference — the accuracy face of the payload/precision
// trade-off (the analytic face is RunAblationBitDepth).
func RunAblationWirePrecision(env *Env) (*TrainAblationResult, error) {
	res := &TrainAblationResult{Name: "wire-precision ablation (Img+RF, 1-pixel)"}

	ref := env.schemeConfig(split.ImageRF, 40)
	row, err := env.runVariant("unquantised", ref)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)

	for _, depth := range []tensor.BitDepth{tensor.Depth8, tensor.Depth16, tensor.Depth32} {
		cfg := env.schemeConfig(split.ImageRF, 40)
		cfg.QuantizeWire = true
		cfg.BitDepth = depth
		row, err := env.runVariant(fmt.Sprintf("R=%d", int(depth)), cfg)
		if err != nil {
			return nil, fmt.Errorf("wire precision R=%d: %w", int(depth), err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
