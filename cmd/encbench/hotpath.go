package main

import (
	"encoding/json"
	"fmt"
	"log"
	//lint:ignore noweakrand seeded benchmark data generation, not keystream material
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"coldboot"
	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/core"
	"coldboot/internal/keyfind"
	"coldboot/internal/obs"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// Hot-path benchmark emitter (the -hotpath flag): runs the same kernels the
// root bench_test.go measures, but in-process and machine-readable, so the
// perf trajectory of the attack hot path can be tracked across PRs by
// diffing BENCH_hotpath.json.

// HotpathResult is one benchmark row of the JSON report. ns_per_op is the
// mean from testing.Benchmark; p50/p99 come from a separate sampling pass
// through an obs.Histogram, so tail skew (GC pauses, scheduler noise,
// cache-cold iterations) is visible next to the mean. The power-of-two
// buckets bound the percentile estimates within 2x; sub-microsecond ops
// are sampled in batches, so their percentiles describe batch-averaged
// latency, not single-call jitter.
type HotpathResult struct {
	Name           string  `json:"name"`
	NsPerOp        float64 `json:"ns_per_op"`
	P50NsPerOp     float64 `json:"p50_ns_per_op"`
	P99NsPerOp     float64 `json:"p99_ns_per_op"`
	LatencySamples int64   `json:"latency_samples"`
	MBPerS         float64 `json:"mb_per_s"`
	BytesPerOp     int64   `json:"processed_bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	Iterations     int     `json:"iterations"`
}

// HotpathGate is the CI floor/ceiling for the end-to-end attack pipeline
// row: `encbench -guard` re-runs attack_dump_2MiB and fails the build when
// throughput regresses below the floor or the allocation budget is blown.
// The values are deliberately loose relative to the recorded numbers
// (~40% of measured MB/s, ~3x measured allocs) so scheduler noise on a
// loaded 1-CPU CI container does not flake, while a return of per-candidate
// allocation (tens of thousands per op before the pooled-scratch work)
// still fails unmistakably.
type HotpathGate struct {
	AttackDumpMinMBPerS      float64 `json:"attack_dump_min_mb_per_s"`
	AttackDumpMaxAllocsPerOp int64   `json:"attack_dump_max_allocs_per_op"`
}

// defaultHotpathGate is written into fresh reports and backstops reports
// generated before the gate existed.
var defaultHotpathGate = HotpathGate{
	AttackDumpMinMBPerS:      60,
	AttackDumpMaxAllocsPerOp: 1000,
}

// HotpathReport is the whole BENCH_hotpath.json document. The run metadata
// (toolchain, OS/arch, CPU budget) is embedded so two BENCH_hotpath.json
// files can be compared knowing whether the machines were comparable.
type HotpathReport struct {
	GeneratedBy      string          `json:"generated_by"`
	Date             string          `json:"date"`
	GitRevision      string          `json:"git_revision"`
	GoVersion        string          `json:"go_version"`
	GOOS             string          `json:"goos"`
	GOARCH           string          `json:"goarch"`
	NumCPU           int             `json:"num_cpu"`
	GOMAXPROCS       int             `json:"gomaxprocs"`
	Gate             HotpathGate     `json:"gate"`
	Benchmarks       []HotpathResult `json:"benchmarks"`
	ParallelSpeedup  float64         `json:"keyfind_parallel_over_serial"`
	SpeedupWorkerPop int             `json:"keyfind_parallel_workers"`
}

func row(name string, bytesPerOp int64, op func()) HotpathResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	p50, p99, samples := sampleLatency(op, ns)
	return HotpathResult{
		Name:           name,
		NsPerOp:        ns,
		P50NsPerOp:     p50,
		P99NsPerOp:     p99,
		LatencySamples: samples,
		MBPerS:         float64(bytesPerOp) / ns * 1e3, // bytes/ns -> MB/s (1e9 ns * 1e-6 MB)
		BytesPerOp:     bytesPerOp,
		AllocsPerOp:    r.AllocsPerOp(),
		Iterations:     r.N,
	}
}

// Latency sampling bounds: enough samples for a stable p99, capped in wall
// time so the slow whole-attack rows do not stall the report.
const (
	latencyMaxSamples = 512
	latencyBudgetNs   = int64(2e9)
)

// sampleLatency re-runs op, timing batches through the same log-bucketed
// histogram the pipeline uses (obs.Histogram), and returns the p50/p99
// per-op estimates plus the number of samples taken. Ops faster than 1 µs
// run in batches sized to ~1 µs so a clock read does not dominate the
// measurement; each sample is then the batch mean.
func sampleLatency(op func(), nsPerOp float64) (p50, p99 float64, samples int64) {
	batch := int64(1)
	if nsPerOp > 0 && nsPerOp < 1000 {
		batch = int64(1000/nsPerOp) + 1
	}
	var h obs.Histogram
	deadline := obs.Now() + latencyBudgetNs
	for n := 0; n < latencyMaxSamples && obs.Now() < deadline; n++ {
		start := obs.Now()
		for i := int64(0); i < batch; i++ {
			op()
		}
		h.Observe(obs.Since(start) / batch)
	}
	snap := h.Snapshot("latency")
	return float64(snap.P50), float64(snap.P99), snap.Count
}

// attackDump builds the scrambled 2 MiB fixture the attack_dump_2MiB row
// and the -guard re-run share: a light-workload image with one expanded
// AES-256 schedule planted, scrambled by the Skylake DDR4 model.
func attackDump() ([]byte, error) {
	planted := make([]byte, 32)
	rand.New(rand.NewSource(6)).Read(planted)
	plain := make([]byte, 2<<20)
	if err := workload.Fill(plain, 7, workload.LightSystem); err != nil {
		return nil, err
	}
	copy(plain[4096*64+128:], aes.ExpandKeyBytes(planted))
	dump := make([]byte, len(plain))
	scramble.NewSkylakeDDR4(11).Scramble(dump, plain, 0)
	return dump, nil
}

// attackRow benchmarks the whole mine→directory→hunt→assemble pipeline over
// the shared fixture.
func attackRow(dump []byte) HotpathResult {
	return row("attack_dump_2MiB", int64(len(dump)), func() {
		res, err := core.Attack(dump, core.Config{})
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Keys) == 0 {
			log.Fatal("key not recovered")
		}
	})
}

// decayedDump captures the simulator's default DIMM transfer (2 MiB,
// -50 °C for 2 s, retention about 0.997, simulator seed 1): the decayed
// dump the repair rows share.
func decayedDump() ([]byte, error) {
	img, _, err := coldboot.Capture(coldboot.Scenario{Seed: 1})
	return img, err
}

// repairRows benchmarks the pipeline on the decayed dump with repair off
// and with single-flip repair (the coldboot CLI default).
func repairRows(dump []byte) (off, on HotpathResult) {
	attack := func(flips int) func() {
		return func() {
			res, err := core.Attack(dump, core.Config{RepairFlips: flips})
			if err != nil {
				log.Fatal(err)
			}
			if len(res.Keys) == 0 {
				log.Fatal("decayed dump: no key recovered")
			}
		}
	}
	off = row("attack_decayed_2MiB_repair0", int64(len(dump)), attack(0))
	on = row("attack_decayed_2MiB_repair1", int64(len(dump)), attack(1))
	return off, on
}

// writeHotpath runs the hot-path suite and writes the JSON report to path.
func writeHotpath(path string) error {
	fmt.Fprintf(os.Stderr, "running hot-path benchmarks (NumCPU=%d)...\n", runtime.NumCPU())

	// Shared fixtures.
	xorBuf := make([]byte, 4096)
	xorKey := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(xorKey)
	ddr4 := scramble.NewSkylakeDDR4(1)

	img := make([]byte, 4<<20)
	if err := workload.Fill(img, 5, workload.LoadedSystem); err != nil {
		return err
	}
	planted := make([]byte, 32)
	rand.New(rand.NewSource(6)).Read(planted)
	copy(img[3<<20:], aes.ExpandKeyBytes(planted))

	dump, err := attackDump()
	if err != nil {
		return err
	}

	report := HotpathReport{
		GeneratedBy: "encbench -hotpath",
		Date:        time.Now().UTC().Format(time.RFC3339),
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Gate:        defaultHotpathGate,
	}

	report.Benchmarks = append(report.Benchmarks,
		row("xor_words_4096B", 4096, func() {
			bitutil.XORWords(xorBuf, xorBuf, xorKey)
		}),
		row("xor_block_64B", 64, func() {
			bitutil.XORBlock64(xorBuf, xorBuf, xorKey)
		}),
		// The Figure 1 data path: scramble + descramble 4 KiB through the
		// Skylake DDR4 model (matches BenchmarkFigure1ScramblerModel).
		row("figure1_scramble_roundtrip_4096B", 2*4096, func() {
			ddr4.Scramble(xorBuf, xorBuf, 0)
			ddr4.Descramble(xorBuf, xorBuf, 0)
		}),
	)

	serial := row("keyfind_scan_serial_4MiB", int64(len(img)), func() {
		if len(keyfind.ScanSerial(img, aes.AES256, 0)) != 1 {
			log.Fatal("planted key not found")
		}
	})
	parallel := row("keyfind_scan_parallel_4MiB", int64(len(img)), func() {
		if len(keyfind.Scan(img, aes.AES256, 0)) != 1 {
			log.Fatal("planted key not found")
		}
	})
	report.Benchmarks = append(report.Benchmarks, serial, parallel)
	if parallel.NsPerOp > 0 {
		report.ParallelSpeedup = serial.NsPerOp / parallel.NsPerOp
	}
	report.SpeedupWorkerPop = runtime.NumCPU()

	report.Benchmarks = append(report.Benchmarks, attackRow(dump))
	decayed, err := decayedDump()
	if err != nil {
		return err
	}
	off, on := repairRows(decayed)
	report.Benchmarks = append(report.Benchmarks, off, on)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	for _, r := range report.Benchmarks {
		fmt.Printf("%-34s %14.0f ns/op  p50 %12.0f  p99 %12.0f %10.1f MB/s %6d allocs/op\n",
			r.Name, r.NsPerOp, r.P50NsPerOp, r.P99NsPerOp, r.MBPerS, r.AllocsPerOp)
	}
	fmt.Printf("keyfind parallel/serial speedup: %.2fx (%d CPUs)\n",
		report.ParallelSpeedup, report.SpeedupWorkerPop)
	return nil
}

// runGuard re-runs the end-to-end attack benchmarks and enforces the gate
// recorded in the committed BENCH_hotpath.json at path (falling back to the
// built-in defaults for pre-gate reports). This is the CI tripwire for the
// pipeline's throughput and allocation discipline: a change that quietly
// reintroduces per-candidate allocation fails here even if every unit test
// passes.
func runGuard(path string) error {
	gate := defaultHotpathGate
	if data, err := os.ReadFile(path); err == nil {
		var committed HotpathReport
		if err := json.Unmarshal(data, &committed); err != nil {
			return fmt.Errorf("guard: parsing %s: %w", path, err)
		}
		if committed.Gate.AttackDumpMinMBPerS > 0 {
			gate.AttackDumpMinMBPerS = committed.Gate.AttackDumpMinMBPerS
		}
		if committed.Gate.AttackDumpMaxAllocsPerOp > 0 {
			gate.AttackDumpMaxAllocsPerOp = committed.Gate.AttackDumpMaxAllocsPerOp
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("guard: reading %s: %w", path, err)
	}

	fmt.Fprintf(os.Stderr, "guard: re-running attack_dump_2MiB (floor %.0f MB/s, ceiling %d allocs/op)...\n",
		gate.AttackDumpMinMBPerS, gate.AttackDumpMaxAllocsPerOp)
	dump, err := attackDump()
	if err != nil {
		return err
	}
	r := attackRow(dump)
	fmt.Printf("guard: %s %14.0f ns/op %10.1f MB/s %6d allocs/op\n",
		r.Name, r.NsPerOp, r.MBPerS, r.AllocsPerOp)
	if r.MBPerS < gate.AttackDumpMinMBPerS {
		return fmt.Errorf("guard: %s throughput %.1f MB/s is below the %.0f MB/s floor (pipeline regression)",
			r.Name, r.MBPerS, gate.AttackDumpMinMBPerS)
	}
	if r.AllocsPerOp > gate.AttackDumpMaxAllocsPerOp {
		return fmt.Errorf("guard: %s allocates %d times per op, over the %d budget (pooled-scratch regression)",
			r.Name, r.AllocsPerOp, gate.AttackDumpMaxAllocsPerOp)
	}
	fmt.Println("guard: attack_dump_2MiB within gate")

	// Repair on a decayed dump may cost at most repairMaxRatio times repair
	// off on the same dump. Both rows are timed in this process, so the
	// ratio holds on a fast or a slow runner alike and needs no per-report
	// value.
	const repairMaxRatio = 2.0
	fmt.Fprintf(os.Stderr, "guard: re-running the decayed-dump repair rows (repair on at most %.1fx repair off)...\n",
		repairMaxRatio)
	decayed, err := decayedDump()
	if err != nil {
		return err
	}
	off, on := repairRows(decayed)
	ratio := on.NsPerOp / off.NsPerOp
	fmt.Printf("guard: %s %14.0f ns/op, %s %14.0f ns/op, ratio %.2f\n",
		off.Name, off.NsPerOp, on.Name, on.NsPerOp, ratio)
	if ratio > repairMaxRatio {
		return fmt.Errorf("guard: %s takes %.2fx %s, over the %.1fx budget (repair cost regression)",
			on.Name, ratio, off.Name, repairMaxRatio)
	}
	fmt.Println("guard: decayed-dump repair within gate")
	return nil
}

// gitRevision returns the working tree's short commit hash (with a -dirty
// suffix when the tree has uncommitted changes), or "unknown" outside a
// git checkout — BENCH snapshots must stay producible from a tarball.
func gitRevision() string {
	rev, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	out := strings.TrimSpace(string(rev))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		out += "-dirty"
	}
	return out
}
