package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json as far as the benchmark reads it: the
// repeat mode needs every end-to-end metric's bound and which way is
// better, and a test holds the file to what the program prints.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

// runMany serves --workload all and --repeat N. Every run is a process
// of its own, as the driver makes them: peak RSS is a high-water mark of
// the whole process, and a second run in a warmed-up process is not the
// run the bounds were fixed on. With N > 1 it prints, per workload and
// metric, the median, the quartiles, the spread (interquartile range over
// median, as the driver computes it) and — for the end-to-end metrics,
// whose bounds BENCHMARK.json fixes — whether the sets agree: the worst
// set is within the bound of the best.
func runMany(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var mf *manifest
	if o.repeat > 1 {
		if mf, err = readManifest("BENCHMARK.json"); err != nil {
			return fmt.Errorf("repeat mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
		}
	}
	allAgree := true
	for _, name := range names {
		values := make(map[string][]float64)
		units := make(map[string]string)
		for set := 1; set <= o.repeat; set++ {
			args := []string{"--workload", name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace)}
			if o.traceOut != "" {
				args = append(args, "--trace-out", o.traceOut)
			}
			child := exec.Command(self, args...)
			child.Stderr = os.Stderr
			out, err := child.Output()
			os.Stdout.Write(out)
			if err != nil {
				return fmt.Errorf("%s, set %d: %w", name, set, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s, set %d: result line: %w", name, set, err)
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		if o.repeat == 1 {
			continue
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%-16s %-34s %14s %14s %14s %8s %-8s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit", "sets agree")
		for _, k := range keys {
			q1, q2, q3 := quartiles(values[k])
			verdict := ""
			for _, e := range mf.EndToEnd {
				if e.Name != k {
					continue
				}
				s := sortedCopy(values[k])
				best, worst := s[0], s[len(s)-1]
				if e.Better == "higher" {
					best, worst = worst, best
				}
				apart := math.Abs((worst - best) / best)
				verdict = fmt.Sprintf("yes: %.1f%% apart, bound %.0f%%", apart*100, e.Bound*100)
				if apart > e.Bound {
					verdict = fmt.Sprintf("NO: %.1f%% apart, bound %.0f%%", apart*100, e.Bound*100)
					allAgree = false
				}
			}
			fmt.Printf("%-16s %-34s %14.6g %14.6g %14.6g %7.2f%% %-8s %s\n", name, k, q2, q1, q3, spread(values[k])*100, units[k], verdict)
		}
	}
	if !allAgree {
		return fmt.Errorf("sets disagree beyond the bound")
	}
	return nil
}
