// Command perfbench is the coldboot repository's benchmark: it generates
// each workload's dumps from a seed with the simulator, drives the attack
// and the coldbootd daemon through their public entry points, checks every
// result against the planted keys, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a traced pass) as one JSON
// object on its last line of output.
//
//	perfbench --workload reboot_stream --seed 1 --seconds 20 --trace 0
//	perfbench --steadiness 10 --seconds 20 [--workload name]
//
// See DESIGN.md next to this file for the workloads, the metrics and the
// layer predictions. Build and run it with perfbench/run.sh from the root
// of a checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	_ "coldboot/internal/format/all" // the target formats cmd/coldboot and cmd/coldbootd hunt
	"coldboot/internal/obs"
)

// Correctness floors: a run whose op list recovers or returns fewer true
// keys than this is reported as incorrect. The known misses of the
// simulator fixture (about one dump in 150 yields no key, and about one in
// 75 decayed dumps yields a false key) stay far above them.
const (
	minRecoveryRate = 0.8
	minKeyPrecision = 0.8
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: reboot_stream, transfer_repair or daemon_fleet")
		seed       = flag.Int64("seed", 0, "input seed: the same seed gives the same dumps")
		seconds    = flag.Int("seconds", 20, "op-list length, in seconds of work on the reference machine")
		trace      = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		steadiness = flag.Int("steadiness", 0, "run each workload (or --workload) this many times, seeds --seed.., and print the spread of every metric")
		out        = flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for work files, traces and steadiness reports")
	)
	flag.Parse()
	if *steadiness > 0 {
		if err := runSteadiness(*name, *seed, *seconds, *trace == 1, *steadiness, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		setupReps:  3,
		sweepDumps: 4,
		workDir:    filepath.Join(*out, fmt.Sprintf("work-%d", os.Getpid())),
		outDir:     *out,
	}
	res, err := runWorkload(context.Background(), w, cfg, os.Stdout)
	if rmErr := os.RemoveAll(cfg.workDir); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload sets the workload up, runs its op list untraced, and with
// cfg.trace also runs the traced pass and the per-layer sweep. A human
// summary goes to log; the returned result is the machine-readable line.
func runWorkload(ctx context.Context, w workload, cfg config, log io.Writer) (result, error) {
	ops := cfg.opCount(w)
	var (
		fx        *fixture
		setupS    []float64 // at reference speed
		captureS  []float64
		closeErrs []error
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if fx != nil {
			closeErrs = append(closeErrs, fx.close())
		}
		t0 := time.Now()
		var err error
		fx, err = setUp(w, cfg, filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", rep)))
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds()/speed(fx.ref))
		captureS = append(captureS, median(fx.captureS))
	}
	for _, err := range closeErrs {
		if err != nil {
			fx.close()
			return result{}, err
		}
	}

	base := runPass(ctx, fx, fx.d, ops, nil)
	fmt.Fprintf(log, "workload %s seed %d: %d ops over %d dumps of %d bytes, %d set-ups\n",
		w.name, cfg.seed, ops, len(fx.dumps), fx.dumps[0].size, len(setupS))
	q := tailQuantile(len(base.latMs))
	fmt.Fprintf(log, "measured: %.4g MiB/s, op p50 %.4g ms, op p%.0f %.4g ms (%d ops), machine at %.3fx reference time\n",
		base.mib/base.wallS, median(base.latMs), 100*q, quantile(base.latMs, q), len(base.latMs), speed(base.ref))
	if base.firstErr != nil {
		fmt.Fprintf(log, "first failed op: %v\n", base.firstErr)
	}
	res := result{
		Correct:   checkCorrect(base, log),
		Attempted: base.attempted,
		Failed:    base.failed,
		Metrics:   make(map[string]metricValue),
	}
	if !cfg.trace {
		err := fx.close()
		emit(res.Metrics, endToEndDefs, endToEnd(base, setupS), log)
		return res, err
	}

	traced, t, sw, server, err := tracedPass(ctx, fx, cfg, ops)
	if closeErr := fx.close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return result{}, err
	}
	res.Attempted, res.Failed = traced.attempted, traced.failed
	if traced.score != base.score || traced.inconsistent > 0 {
		fmt.Fprintf(log, "traced pass disagrees with the untraced pass: %+v vs %+v\n", traced.score, base.score)
		res.Correct = false
	}
	m := perLayer(w, base, traced, t, sw, server, median(captureS))
	emit(res.Metrics, perLayerDefs, m, log)
	if err := writeTraceFiles(cfg, w, t, sw, m); err != nil {
		return result{}, err
	}
	return res, nil
}

// tracedPass runs the op list again with every layer's tracing on, then
// the per-layer sweep. It returns the traced pass, its tracer, the sweep,
// and the collector of the daemon the traced ops used (nil if none).
func tracedPass(ctx context.Context, fx *fixture, cfg config, ops int) (pass, *tracer, *sweep, *obs.Collector, error) {
	t := newTracer()
	d := fx.d
	if fx.w.remote {
		// The traced ops need a daemon wired to the tracer; its start-up
		// is not set-up time.
		var err error
		if d, err = startDaemon(filepath.Join(fx.dir, "coldbootd-traced"), t); err != nil {
			return pass{}, nil, nil, nil, err
		}
	}
	traced := runPass(ctx, fx, d, ops, t)
	var server *obs.Collector
	if fx.w.remote {
		if err := d.stop(); err != nil {
			return pass{}, nil, nil, nil, err
		}
		server = d.svc.Collector()
	}
	t.importCollector(!fx.w.remote)
	sw, err := runSweep(ctx, fx, cfg)
	if err != nil {
		return pass{}, nil, nil, nil, fmt.Errorf("per-layer sweep: %w", err)
	}
	return traced, t, sw, server, nil
}

// checkCorrect applies the run's correctness checks and says why one
// failed.
func checkCorrect(p pass, log io.Writer) bool {
	ok := true
	if p.inconsistent > 0 {
		fmt.Fprintf(log, "%d ops returned different keys for a dump than an earlier op\n", p.inconsistent)
		ok = false
	}
	if r := ratio(p.score.recovered, p.score.planted); r < minRecoveryRate {
		fmt.Fprintf(log, "recovery rate %.3f below %.2f\n", r, minRecoveryRate)
		ok = false
	}
	if r := ratio(p.score.recovered, p.score.returned); r < minKeyPrecision {
		fmt.Fprintf(log, "key precision %.3f below %.2f\n", r, minKeyPrecision)
		ok = false
	}
	return ok
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd computes the untraced pass's metrics. Timings are divided by
// the pass's speed, so they read as on the reference machine.
func endToEnd(p pass, setupS []float64) map[string]float64 {
	f := speed(p.ref)
	return map[string]float64{
		"setup_s":         median(setupS),
		"throughput_mb_s": p.mib / p.wallS * f,
		"op_p50_ms":       median(p.latMs) / f,
		"recovery_rate":   ratio(p.score.recovered, p.score.planted),
		"key_precision":   ratio(p.score.recovered, p.score.returned),
		"ok_ops_frac":     ratio(p.attempted-p.failed, p.attempted),
		"cpu_s_per_mb":    p.cpuS / p.mib / f,
		"alloc_mb_per_mb": p.allocMiB / p.mib,
	}
}

// emit copies the defined metrics into out (NaN and infinities, which JSON
// cannot carry, become 0 with a note) and prints them with their units.
func emit(out map[string]metricValue, defs []metricDef, m map[string]float64, log io.Writer) {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(log, "%s: no finite value (%v); reported as 0\n", d.name, v)
			v = 0
			m[d.name] = v
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "  %-24s %14.6g %-8s %s\n", d.name, v, d.unit, d.how)
	}
}

// perLayer computes the per-layer metrics from the traced pass, the
// sweep, and the daemon calls: the traced ops' own on daemon_fleet, the
// sweep's daemon probe elsewhere.
func perLayer(w workload, base, traced pass, t *tracer, sw *sweep, server *obs.Collector, captureS float64) map[string]float64 {
	m := map[string]float64{
		"capture.s_per_dump":      captureS,
		"dumpfile.open_ms":        median(sw.openMs),
		"dumpfile.crc_mb_s":       sw.mib / sw.crcS,
		"core.mine.s_per_mb":      sw.mineS / sw.mib,
		"core.mine.coverage":      sw.coverage,
		"core.hunt.s_per_mb":      sw.huntS / sw.mib,
		"core.hunt.pairs_tested":  float64(sw.pairs) / float64(sw.dumps),
		"core.verify_calls":       float64(sw.verify.Count) / float64(sw.dumps),
		"core.verify_p50_us":      float64(sw.verify.P50) / 1e3,
		"core.repair.s_per_mb":    sw.repairS / sw.mib,
		"core.repair.extra_keys":  float64(sw.extraKeys),
		"wal.append_sync_ms":      median(sw.walMs),
		"obs.trace_overhead_frac": traced.wallS/base.wallS - 1,
	}
	dt, dp := t, traced
	if !w.remote {
		dt, dp, server = sw.probeTracer, *sw.probe, sw.probeServer
	}
	daemonMetrics(m, dt, dp, server)
	shares(m, w, traced, t, server)
	return m
}

// daemonMetrics fills the service, jobs and fleet metrics from one traced
// daemon's calls and its server-side collector.
func daemonMetrics(m map[string]float64, t *tracer, p pass, server *obs.Collector) {
	submits := t.callsOf("service.submit")
	var upBytes, upS float64
	var submitMs []float64
	for _, c := range submits {
		submitMs = append(submitMs, c.ms())
		upBytes += float64(c.ReqBytes)
		upS += c.ms() / 1e3
	}
	m["service.submit_ms"] = median(submitMs)
	m["service.upload_mb_s"] = upBytes / (1 << 20) / upS
	m["jobs.queue_wait_ms"] = median(p.queueWaitMs)

	var leaseMs []float64
	empty := 0
	for _, c := range t.callsOf("fleet.lease") {
		leaseMs = append(leaseMs, c.ms())
		if c.Status == 204 {
			empty++
		}
	}
	m["fleet.lease_rtt_ms"] = median(leaseMs)
	m["fleet.empty_lease_frac"] = ratio(empty, len(leaseMs))
	var dataBytes, dataS float64
	for _, c := range t.callsOf("fleet.data") {
		dataBytes += float64(c.RespBytes)
		dataS += c.ms() / 1e3
	}
	m["fleet.data_mb_s"] = dataBytes / (1 << 20) / dataS
	var completeMs []float64
	for _, c := range t.callsOf("fleet.complete") {
		completeMs = append(completeMs, c.ms())
	}
	m["fleet.complete_ms"] = median(completeMs)
	if h := server.Histogram("fleet.shard_ns"); h != nil {
		m["fleet.shard_ms"] = float64(h.Snapshot("").P50) / 1e6
	}
}

// shares attributes the traced ops' time to layers, as fractions of the
// summed op latency. On daemon_fleet the parts are the blocking steps of
// each job: submit, queue wait, mining at the coordinator, waiting for a
// worker's lease, the shard scan, and the fleet round trips.
func shares(m map[string]float64, w workload, p pass, t *tracer, server *obs.Collector) {
	var opMs float64
	for _, l := range p.latMs {
		opMs += l
	}
	stageMs := make(map[string]float64)
	for _, s := range t.col.Report().Stages {
		stageMs[s.Name] = s.WallMs
	}
	sumCalls := func(routes ...string) float64 {
		var ms float64
		for _, r := range routes {
			for _, c := range t.callsOf(r) {
				ms += c.ms()
			}
		}
		return ms
	}
	var dumpfileMs float64
	for _, lt := range t.layerTimes() {
		if lt.Layer == "dumpfile" {
			dumpfileMs = lt.WallMs
		}
	}
	huntMs := stageMs["directory"] + stageMs["hunt"] + stageMs["assemble"] + stageMs["campaign.merge"]
	var repairMs float64
	if w.repair > 0 {
		repairMs = m["core.repair.s_per_mb"] * p.mib * 1e3
	}
	var leaseWaitMs float64
	if server != nil && w.remote {
		if h := server.Histogram("fleet.lease_wait_ns"); h != nil {
			leaseWaitMs = float64(h.Snapshot("").Sum) / 1e6
		}
	}
	var queueMs float64
	for _, q := range p.queueWaitMs {
		queueMs += q
	}
	m["dumpfile.share"] = dumpfileMs / opMs
	m["core.mine.share"] = (stageMs["mine"] + stageMs["campaign.mine"]) / opMs
	m["core.hunt.share"] = (huntMs - repairMs) / opMs
	m["core.repair.share"] = repairMs / opMs
	m["service.share"] = sumCalls("service.submit", "service.result") / opMs
	m["jobs.share"] = queueMs / opMs
	m["fleet.share"] = (leaseWaitMs + sumCalls("fleet.plan", "fleet.data", "fleet.complete")) / opMs
}

// writeTraceFiles writes the traced pass as a Chrome trace, and the
// per-layer wall and self times with the metrics and their predictions as
// JSON, under cfg.outDir.
func writeTraceFiles(cfg config, w workload, t *tracer, sw *sweep, m map[string]float64) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(stem+".trace.json", t.writeChrome); err != nil {
		return err
	}
	if sw.probeTracer != nil {
		if err := write(stem+"-daemon-probe.trace.json", sw.probeTracer.writeChrome); err != nil {
			return err
		}
	}
	type metricRow struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		How   string  `json:"how"`
		Moves string  `json:"moves"`
	}
	doc := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Layers   []layerTime `json:"layers"`
		Metrics  []metricRow `json:"metrics"`
	}{Workload: w.name, Seed: cfg.seed, Layers: t.layerTimes()}
	for _, d := range perLayerDefs {
		doc.Metrics = append(doc.Metrics, metricRow{d.name, m[d.name], d.unit, d.how, d.moves})
	}
	sort.SliceStable(doc.Layers, func(i, j int) bool { return doc.Layers[i].SelfMs > doc.Layers[j].SelfMs })
	return write(stem+".layers.json", func(wr io.Writer) error {
		enc := json.NewEncoder(wr)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}
