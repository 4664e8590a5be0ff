// Command mmsl regenerates every evaluation artefact of the paper
// "One Pixel Image and RF Signal Based Split Learning for mmWave Received
// Power Prediction" (CoNEXT '19 Companion) from this repository's
// from-scratch implementation.
//
// Subcommands:
//
//	dataset  generate the synthetic depth-image + received-power dataset
//	fig2     raw vs CNN-output images (PGM files + ASCII art)
//	fig3a    learning curves: validation RMSE vs virtual elapsed time (CSV)
//	fig3b    predicted vs ground-truth received power (CSV)
//	table1   privacy leakage & decode success probability per pooling
//	ablate   payload-parameter sweeps (bit depth, batch, seq length, pooling)
//	frontier codec × pooling RMSE-vs-uplink-bits frontier
//	train    train a single scheme and print its learning curve
//	all      run fig2, fig3a, fig3b, table1, ablate and frontier into one directory
//
// Every run is deterministic for a given --seed. --scale quick (default)
// finishes in minutes; --scale paper uses the paper's full K = 13,228
// frames and 100×156-step budget.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"math/rand"
	"repro/internal/dataset"
	"repro/internal/experiments"

	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/compress"
	"repro/internal/online"
	"repro/internal/pgm"
	"repro/internal/radio"
	"repro/internal/split"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "dataset":
		err = cmdDataset(args)
	case "fig2":
		err = cmdFig2(args)
	case "fig3a":
		err = cmdFig3a(args)
	case "fig3b":
		err = cmdFig3b(args)
	case "table1":
		err = cmdTable1(args)
	case "ablate":
		err = cmdAblate(args)
	case "frontier":
		err = cmdFrontier(args)
	case "train":
		err = cmdTrain(args)
	case "online":
		err = cmdOnline(args)
	case "all":
		err = cmdAll(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mmsl: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmsl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: mmsl <command> [flags]

commands:
  dataset   generate the synthetic dataset to a file
  fig2      reproduce Fig. 2 (raw vs CNN output images)
  fig3a     reproduce Fig. 3a (learning curves)
  fig3b     reproduce Fig. 3b (power predictions)
  table1    reproduce Table 1 (privacy leakage, success probability)
  ablate    payload-parameter ablation sweeps
  frontier  codec × pooling RMSE-vs-uplink-bits frontier
  train     train one scheme and print its curve
  online    streaming inference over the channel (deployment phase)
  all       run every artefact into --outdir

run "mmsl <command> -h" for command flags
`)
}

// scaleFlags registers the shared --scale/--seed/--dataset flags.
func scaleFlags(fs *flag.FlagSet) (scaleName *string, seed *int64, dsPath *string) {
	scaleName = fs.String("scale", "quick", "experiment scale: quick or paper")
	seed = fs.Int64("seed", 1, "deterministic experiment seed")
	dsPath = fs.String("dataset", "", "optional pre-generated dataset file (see 'mmsl dataset')")
	return
}

func buildEnv(scaleName string, seed int64, dsPath string) (*experiments.Env, error) {
	var sc experiments.Scale
	switch scaleName {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		return nil, fmt.Errorf("unknown scale %q (want quick or paper)", scaleName)
	}
	sc.Seed = seed
	if dsPath != "" {
		d, err := dataset.Load(dsPath)
		if err != nil {
			return nil, fmt.Errorf("load dataset: %w", err)
		}
		return experiments.NewEnvFromDataset(sc, d)
	}
	return experiments.NewEnv(sc)
}

func cmdDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	out := fs.String("out", "dataset.mmsl", "output file")
	frames := fs.Int("frames", dataset.PaperNumFrames, "number of frames K")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)

	cfg := dataset.DefaultGenConfig()
	cfg.NumFrames = *frames
	cfg.Seed = *seed
	d, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	if err := dataset.Save(*out, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s: K=%d frames of %dx%d px at γ=%.0f ms\n",
		*out, d.Len(), d.H, d.W, d.FramePeriodS*1000)
	return nil
}

func cmdFig2(args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	outDir := fs.String("outdir", "fig2", "output directory for PGM files")
	frames := fs.Int("frames", 2, "number of sample frames")
	ascii := fs.Bool("ascii", true, "print ASCII art to stdout")
	fs.Parse(args)

	env, err := buildEnv(*scaleName, *seed, *dsPath)
	if err != nil {
		return err
	}
	res, err := experiments.RunFig2(env, *frames)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for i, row := range res.Frames {
		for j, img := range row {
			path := filepath.Join(*outDir, fmt.Sprintf("frame%d_panel%d.pgm", i, j))
			if err := pgm.WriteFile(path, img.Pixels, img.H, img.W); err != nil {
				return err
			}
			if *ascii {
				fmt.Printf("--- %s ---\n%s\n", img.Label, pgm.ASCII(img.Pixels, img.H, img.W))
			}
		}
	}
	fmt.Printf("wrote %d PGM panels to %s\n", len(res.Frames)*4, *outDir)
	return nil
}

func cmdFig3a(args []string) error {
	fs := flag.NewFlagSet("fig3a", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	out := fs.String("out", "fig3a.csv", "output CSV")
	svg := fs.String("svg", "", "optional SVG chart output")
	perf := perfFlags(fs)
	fs.Parse(args)

	env, err := buildEnv(*scaleName, *seed, *dsPath)
	if err != nil {
		return err
	}
	if err := perf.apply(env); err != nil {
		return err
	}
	defer perf.finish()
	res, err := experiments.RunFig3a(env)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteCurvesCSV(f, res.Curves); err != nil {
		return err
	}
	if *svg != "" {
		sf, err := os.Create(*svg)
		if err != nil {
			return err
		}
		if err := trace.WriteCurvesSVG(sf, res.Curves, 900, 540); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *svg)
	}
	fmt.Printf("%-30s %8s %10s %10s %s\n", "scheme", "epochs", "time(s)", "rmse(dB)", "converged")
	for _, c := range res.Curves {
		last := c.Points[len(c.Points)-1]
		fmt.Printf("%-30s %8d %10.1f %10.2f %v\n",
			c.Scheme, len(c.Points), last.TimeS, c.FinalRMSE, c.Converged)
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func cmdFig3b(args []string) error {
	fs := flag.NewFlagSet("fig3b", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	out := fs.String("out", "fig3b.csv", "output CSV")
	svg := fs.String("svg", "", "optional SVG chart output")
	window := fs.Int("window", 90, "window length in frames (90 ≈ 3 s)")
	fs.Parse(args)

	env, err := buildEnv(*scaleName, *seed, *dsPath)
	if err != nil {
		return err
	}
	res, err := experiments.RunFig3b(env, *window)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Trace.WriteCSV(f); err != nil {
		return err
	}
	if *svg != "" {
		sf, err := os.Create(*svg)
		if err != nil {
			return err
		}
		if err := res.Trace.WriteSVG(sf, 900, 540); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *svg)
	}
	fmt.Printf("wrote %s (%d rows, %d series)\n", *out, len(res.Trace.TimeS), len(res.Trace.Series))
	if len(res.Events) > 0 {
		fmt.Printf("\nevent-conditioned RMSE over the window (jumps ≥ 8 dB, ±2 frames):\n")
		fmt.Printf("%-14s %16s %18s\n", "scheme", "stable RMSE (dB)", "transition RMSE (dB)")
		for _, s := range res.Trace.Series {
			if rep, ok := res.Events[s.Scheme]; ok {
				fmt.Printf("%-14s %16.2f %18.2f\n", s.Scheme, rep.StableRMSE, rep.TransitionRMSE)
			}
		}
	}
	return nil
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	out := fs.String("out", "", "optional output CSV (default: print only)")
	samples := fs.Int("samples", 48, "frames for the MDS leakage measurement")
	trainEpochs := fs.Int("train-epochs", 1, "CNN training epochs before measuring")
	perf := perfFlags(fs)
	fs.Parse(args)

	env, err := buildEnv(*scaleName, *seed, *dsPath)
	if err != nil {
		return err
	}
	if err := perf.apply(env); err != nil {
		return err
	}
	defer perf.finish()
	cfg := experiments.DefaultTable1Config()
	cfg.LeakageSamples = *samples
	cfg.TrainEpochs = *trainEpochs
	res, err := experiments.RunTable1(env, cfg)
	if err != nil {
		return err
	}
	tab := res.Table()
	if err := tab.WritePretty(os.Stdout); err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tab.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	fs.Parse(args)

	env, err := buildEnv(*scaleName, *seed, *dsPath)
	if err != nil {
		return err
	}
	for _, res := range []*experiments.AblationResult{
		experiments.RunAblationBitDepth(env),
		experiments.RunAblationBatch(env),
		experiments.RunAblationSeqLen(env),
		experiments.RunAblationPoolingSweep(env),
	} {
		fmt.Printf("\n== %s ==\n", res.Name)
		if err := res.Table().WritePretty(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func cmdFrontier(args []string) error {
	fs := flag.NewFlagSet("frontier", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	out := fs.String("out", "", "optional output CSV (default: print only)")
	pools := fs.String("pools", "", "comma-separated pooling widths (default 4,10,20,40)")
	codecs := fs.String("codecs", "", "comma-separated codecs (default raw,float16,int8,topk)")
	perf := perfFlags(fs)
	fs.Parse(args)

	var poolings []int
	if *pools != "" {
		for _, s := range strings.Split(*pools, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad pooling %q: %w", s, err)
			}
			poolings = append(poolings, p)
		}
	}
	var ids []compress.ID
	if *codecs != "" {
		for _, s := range strings.Split(*codecs, ",") {
			id, err := compress.Parse(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
	}

	env, err := buildEnv(*scaleName, *seed, *dsPath)
	if err != nil {
		return err
	}
	if err := perf.apply(env); err != nil {
		return err
	}
	defer perf.finish()
	res, err := experiments.RunCodecFrontier(env, poolings, ids)
	if err != nil {
		return err
	}
	fmt.Printf("== %s ==\n", res.Name)
	tab := res.Table()
	if err := tab.WritePretty(os.Stdout); err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tab.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	schemeName := fs.String("scheme", "imgrf", "scheme: rf, img, or imgrf")
	pool := fs.Int("pool", 40, "square pooling size")
	ideal := fs.Bool("ideal-link", false, "skip the simulated channel (accuracy-only)")
	codecName := fs.String("codec", "raw", "cut-layer payload codec: raw, float16, int8 or topk")
	saveCkpt := fs.String("save", "", "write a model checkpoint after training")
	loadCkpt := fs.String("load", "", "restore a model checkpoint before training")
	perf := perfFlags(fs)
	fs.Parse(args)

	var m split.Modality
	switch *schemeName {
	case "rf":
		m = split.RFOnly
	case "img":
		m = split.ImageOnly
	case "imgrf":
		m = split.ImageRF
	default:
		return fmt.Errorf("unknown scheme %q (want rf, img, or imgrf)", *schemeName)
	}

	env, err := buildEnv(*scaleName, *seed, *dsPath)
	if err != nil {
		return err
	}
	if err := perf.apply(env); err != nil {
		return err
	}
	defer perf.finish()
	var link split.CutLink = split.NewPaperSimLink(*seed)
	if *ideal {
		link = split.IdealLink{}
	}
	cfg := env.SchemeConfig(m, *pool)
	codecID, err := compress.Parse(*codecName)
	if err != nil {
		return err
	}
	cfg.Codec = codecID
	tr, err := env.NewTrainerFromConfig(cfg, link)
	if err != nil {
		return err
	}
	if *loadCkpt != "" {
		if err := split.LoadCheckpointFile(*loadCkpt, tr.Model); err != nil {
			return fmt.Errorf("load checkpoint: %w", err)
		}
		fmt.Printf("restored checkpoint %s\n", *loadCkpt)
	}
	curve, err := tr.Run()
	if err != nil {
		return err
	}
	fmt.Printf("scheme: %s\n", curve.Scheme)
	fmt.Printf("%6s %10s %10s\n", "epoch", "time(s)", "rmse(dB)")
	for _, p := range curve.Points {
		fmt.Printf("%6d %10.2f %10.3f\n", p.Epoch, p.TimeS, p.RMSEdB)
	}
	fmt.Printf("converged: %v (target %.1f dB)\n", curve.Converged, tr.Model.Cfg.TargetRMSEdB)
	if *saveCkpt != "" {
		if err := split.SaveCheckpointFile(*saveCkpt, tr.Model); err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		fmt.Printf("wrote checkpoint %s\n", *saveCkpt)
	}
	return nil
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	outDir := fs.String("outdir", "results", "output directory")
	workers := fs.Int("workers", 0, "tensor worker-pool size (0 = auto)")
	parallel := fs.Int("parallel", 0, "scheme-scheduler concurrency (0 = sequential, -1 = NumCPU)")
	fs.Parse(args)

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	run := func(name string, f func([]string) error, extra ...string) error {
		fmt.Printf("\n===== %s =====\n", name)
		base := []string{"-scale", *scaleName, "-seed", fmt.Sprint(*seed)}
		if *dsPath != "" {
			base = append(base, "-dataset", *dsPath)
		}
		switch name { // subcommands that understand the perf flags
		case "fig3a", "table1", "frontier":
			base = append(base, "-workers", fmt.Sprint(*workers), "-parallel", fmt.Sprint(*parallel))
		}
		return f(append(base, extra...))
	}
	if err := run("fig2", cmdFig2, "-outdir", filepath.Join(*outDir, "fig2"), "-ascii=false"); err != nil {
		return err
	}
	if err := run("fig3a", cmdFig3a, "-out", filepath.Join(*outDir, "fig3a.csv")); err != nil {
		return err
	}
	if err := run("fig3b", cmdFig3b, "-out", filepath.Join(*outDir, "fig3b.csv")); err != nil {
		return err
	}
	if err := run("table1", cmdTable1, "-out", filepath.Join(*outDir, "table1.csv")); err != nil {
		return err
	}
	if err := run("ablate", cmdAblate); err != nil {
		return err
	}
	if err := run("frontier", cmdFrontier, "-out", filepath.Join(*outDir, "frontier.csv")); err != nil {
		return err
	}
	fmt.Printf("\nall artefacts written under %s\n", *outDir)
	return nil
}

func cmdOnline(args []string) error {
	fs := flag.NewFlagSet("online", flag.ExitOnError)
	scaleName, seed, dsPath := scaleFlags(fs)
	pool := fs.Int("pool", 40, "square pooling size")
	frames := fs.Int("frames", 300, "streamed window length (frames)")
	bandwidth := fs.Float64("bandwidth-hz", radio.PaperUplinkBWHz, "uplink bandwidth")
	power := fs.Float64("tx-dbm", radio.PaperUplinkPowerDBm, "uplink transmit power")
	budget := fs.Int("budget-slots", 33, "per-frame delivery deadline in slots (γ/τ)")
	fs.Parse(args)

	env, err := buildEnv(*scaleName, *seed, *dsPath)
	if err != nil {
		return err
	}
	// Train the scheme first (ideal link: deployment assumes a trained model).
	tr, err := env.NewTrainer(split.ImageRF, *pool, split.IdealLink{})
	if err != nil {
		return err
	}
	if _, err := tr.Run(); err != nil {
		return err
	}

	budgetLink := radio.PaperUplink()
	budgetLink.BandwidthHz = *bandwidth
	budgetLink.TxPowerDBm = *power
	ch, err := channel.New(budgetLink, radio.PaperSlotSeconds,
		rand.New(rand.NewSource(*seed+77)))
	if err != nil {
		return err
	}

	first := env.Split.Val[0]
	last := first + *frames - 1
	if maxLast := env.Split.Val[len(env.Split.Val)-1]; last > maxLast {
		last = maxLast
	}
	cfg := online.DefaultConfig()
	cfg.FrameBudgetSlots = *budget
	res, err := online.Stream(tr.Model, env.Data, ch, cfg, first, last)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("scheme:          %s\n", split.SchemeName(tr.Model.Cfg))
	fmt.Printf("uplink:          %.3g Hz at %.1f dBm, %d-slot frame budget\n", *bandwidth, *power, *budget)
	fmt.Printf("frames streamed: %d (delivered %d, outages %d)\n", st.Frames, st.Delivered, st.Outages)
	fmt.Printf("staleness:       mean %.2f frames, max %d\n", st.MeanStaleness, st.MaxStaleness)
	fmt.Printf("uplink slots:    %d\n", st.SlotsUsed)
	fmt.Printf("prediction RMSE: %.2f dB over the window\n", st.RMSEdB)
	return nil
}
