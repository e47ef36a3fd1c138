package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runSteadiness runs each workload (or just name) runs times in child
// processes, seeds seed, seed+1, ..., exactly as the benchmark's callers
// run it, and prints for every metric the median, the quartiles, the
// quartile spread as a share of the median, and the max/min ratio. The raw
// values are written to outDir/steadiness-<workload>.json.
func runSteadiness(name string, seed int64, seconds int, trace bool, runs int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if name != "" {
		if _, ok := workloadByName(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		names = []string{name}
	}
	traceArg := "0"
	defs := endToEndDefs
	if trace {
		traceArg, defs = "1", perLayerDefs
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, w := range names {
		values := make(map[string][]float64)
		var seeds []int64
		start := time.Now()
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			res, err := runChild(self, w, s, seconds, traceArg, outDir)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Printf("%s seed %d: correct=%v failed=%d of %d\n", w, s, res.Correct, res.Failed, res.Attempted)
			}
			seeds = append(seeds, s)
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("\n%s: %d runs of %d s, seeds %d..%d, %.0f s\n", w, runs, seconds, seed, seed+int64(runs)-1, time.Since(start).Seconds())
		fmt.Printf("  %-24s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "max/min")
		for _, d := range defs {
			xs := values[d.name]
			q1, q2, q3 := quartiles(xs)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			fmt.Printf("  %-24s %12.6g %12.6g %12.6g %7.2f%% %8.3f  %s\n", d.name, q2, q1, q3, 100*(q3-q1)/math.Abs(q2), hi/lo, d.unit)
		}
		raw, err := json.MarshalIndent(map[string]any{"workload": w, "seconds": seconds, "seeds": seeds, "values": values}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, "steadiness-"+w+".json"), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runChild runs one benchmark process and parses its last output line.
func runChild(self, w string, seed int64, seconds int, trace, outDir string) (result, error) {
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", trace, "--out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var res result
	if err := parseLast(&stdout, &res); err != nil {
		return result{}, err
	}
	return res, nil
}

// parseLast decodes the last non-empty line of r, the result line.
func parseLast(r io.Reader, res *result) error {
	var last []byte
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := json.Unmarshal(last, res); err != nil {
		return fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return nil
}
