package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig shrinks a run to a few 512 KiB dumps so every workload, the
// traced pass and the sweep finish in seconds. 512 KiB is the smallest
// size at which Skylake's 4096-key scrambler pool repeats, so the attack
// infers the stride and takes its directory path; a smaller dump falls
// back to the exhaustive hunt, which is many times slower.
func tinyConfig(t *testing.T, trace bool) config {
	dir := t.TempDir()
	return config{
		seed:       0,
		seconds:    1,
		trace:      trace,
		memBytes:   512 << 10,
		dumps:      2,
		ops:        3,
		setupReps:  2,
		sweepDumps: 1,
		workDir:    filepath.Join(dir, "work"),
		outDir:     filepath.Join(dir, "out"),
	}
}

func TestTinyRunEmitsEveryMetricWithItsUnit(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, trace)
				var log strings.Builder
				res, err := runWorkload(context.Background(), w, cfg, &log)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				defs := endToEndDefs
				if trace {
					defs = perLayerDefs
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case v.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, v.Unit, d.unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", d.name, v.Value)
					}
				}
				if res.Attempted != cfg.ops || res.Failed != 0 {
					t.Errorf("attempted %d failed %d, want %d and 0\n%s", res.Attempted, res.Failed, cfg.ops, log.String())
				}
				if trace {
					for _, suffix := range []string{".trace.json", ".layers.json"} {
						if _, err := os.Stat(filepath.Join(cfg.outDir, w.name+"-seed0"+suffix)); err != nil {
							t.Errorf("trace output: %v", err)
						}
					}
				}
			})
		}
	}
}

func TestCorruptedMasterIsAMiss(t *testing.T) {
	truth := fingerprints([][]byte{bytesOf(1), bytesOf(2)})
	corrupted := bytesOf(2)
	corrupted[7] ^= 0x10
	s := scoreKeys(truth, fingerprints([][]byte{bytesOf(1), corrupted, bytesOf(1)}))
	if s.planted != 2 || s.recovered != 1 || s.returned != 2 {
		t.Fatalf("score = %+v, want 2 planted, 1 recovered, 2 distinct returned", s)
	}
	p := pass{score: s, attempted: 1}
	m := endToEnd(p, []float64{1})
	if m["recovery_rate"] != 0.5 || m["key_precision"] != 0.5 {
		t.Errorf("recovery_rate %v key_precision %v, want 0.5 and 0.5", m["recovery_rate"], m["key_precision"])
	}
}

func bytesOf(b byte) []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = b + byte(i)
	}
	return k
}

func TestFailedOpLowersOkOpsFrac(t *testing.T) {
	w, _ := workloadByName("reboot_stream")
	cfg := tinyConfig(t, false)
	cfg.ops = 4
	fx, err := setUp(w, cfg, cfg.workDir)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	// Flip one image byte of the first container: its CRC check fails, so
	// ops 0 and 2 fail and ops 1 and 3 still run.
	raw, err := os.ReadFile(fx.dumps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-100] ^= 1
	if err := os.WriteFile(fx.dumps[0].path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	p := runPass(context.Background(), fx, nil, cfg.ops, nil)
	if p.attempted != 4 || p.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2 (first error: %v)", p.attempted, p.failed, p.firstErr)
	}
	m := endToEnd(p, []float64{1})
	if m["ok_ops_frac"] != 0.5 {
		t.Errorf("ok_ops_frac = %v, want 0.5", m["ok_ops_frac"])
	}
	if got, want := m["recovery_rate"], float64(p.score.recovered)/8; got != want {
		t.Errorf("recovery_rate = %v, want %v: failed ops' masters count as missed", got, want)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestTailQuantileLeavesTenSamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.9}, {100, 0.9}, {50, 0.8}, {20, 0.5}, {5, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "core", Start: 40, End: 70}, // overlaps span 2
		{ID: 4, Parent: 1, Layer: "dumpfile", Start: 90, End: 120},
	}}
	got := make(map[string]layerTime)
	for _, lt := range tr.layerTimes() {
		got[lt.Layer] = lt
	}
	// Children cover [10,70) and [90,100): 70 ns of the op's 100.
	if self := got["bench"].SelfMs * 1e6; math.Abs(self-30) > 1e-6 {
		t.Errorf("bench self = %v ns, want 30", self)
	}
	if wall := got["core"].WallMs * 1e6; math.Abs(wall-70) > 1e-6 {
		t.Errorf("core wall = %v ns, want 70", wall)
	}
}

func TestRunChildParsesLastLine(t *testing.T) {
	// The steadiness report reads only the last non-empty line.
	var res result
	out := "summary line\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{}}\n"
	if err := parseLast(strings.NewReader(out), &res); err != nil || !res.Correct || res.Attempted != 3 {
		t.Fatalf("parseLast = %+v, %v", res, err)
	}
	if err := parseLast(io.LimitReader(strings.NewReader(""), 0), &res); err == nil {
		t.Error("parseLast of empty output succeeded")
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %s %s %s", kind, i, l, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs)
	check("per_layer", doc.PerLayer, perLayerDefs)
}
