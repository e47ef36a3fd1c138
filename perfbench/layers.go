package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/dumpfile"
	"coldboot/internal/obs"
	"coldboot/internal/wal"
)

// metricDef names one metric with its unit and, for per-layer metrics,
// how it is measured and which end-to-end metric it should move on which
// workload.
type metricDef struct {
	name, unit, better string
	how, moves         string
}

var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", how: "median over the set-ups of: captures, container writes, daemon and worker start-up; at reference speed"},
	{name: "throughput_mb_s", unit: "MiB/s", better: "higher", how: "dump MiB taken to a checked result / wall seconds over the op list; at reference speed"},
	{name: "op_p50_ms", unit: "ms", better: "lower", how: "median per-dump analysis time, or upload-to-result-document time on daemon_fleet; at reference speed"},
	{name: "recovery_rate", unit: "frac", better: "higher", how: "planted masters recovered / masters planted"},
	{name: "key_precision", unit: "frac", better: "higher", how: "returned keys that are planted masters / keys returned"},
	{name: "ok_ops_frac", unit: "frac", better: "higher", how: "ops completed without error or timeout / ops attempted"},
	{name: "cpu_s_per_mb", unit: "s/MiB", better: "lower", how: "process user+sys CPU seconds per dump MiB; at reference speed"},
	{name: "alloc_mb_per_mb", unit: "MiB/MiB", better: "lower", how: "runtime.MemStats.TotalAlloc MiB per dump MiB"},
}

var perLayerDefs = []metricDef{
	{"capture.s_per_dump", "s", "lower", "coldboot.Capture, median over set-up repetitions", "setup_s, all workloads"},
	{"dumpfile.open_ms", "ms", "lower", "dumpfile.Open + Close, median", "op_p50_ms, reboot_stream"},
	{"dumpfile.crc_mb_s", "MiB/s", "higher", "File.VerifyChecksum", "throughput_mb_s, reboot_stream"},
	{"core.mine.s_per_mb", "s/MiB", "lower", "core.MineKeysSource with the options core.Config's defaults derive", "throughput_mb_s, daemon_fleet and transfer_repair"},
	{"core.mine.coverage", "frac", "higher", "address classes with a mined key / all address classes", "recovery_rate"},
	{"core.hunt.s_per_mb", "s/MiB", "lower", "core.AttackContext with Config.Mine preset, repair off (directory + hunt + assemble)", "throughput_mb_s, reboot_stream"},
	{"core.hunt.pairs_tested", "count", "lower", "Result.PairsTested per dump", "throughput_mb_s, reboot_stream"},
	{"core.verify_calls", "count", "lower", "hunt.verify_ns histogram count per dump", "throughput_mb_s, reboot_stream"},
	{"core.verify_p50_us", "us", "lower", "hunt.verify_ns histogram p50", "throughput_mb_s, reboot_stream"},
	{"core.repair.s_per_mb", "s/MiB", "lower", "the hunt call with RepairFlips 1 minus the call with repair off", "throughput_mb_s, transfer_repair"},
	{"core.repair.extra_keys", "count", "higher", "planted masters found with repair minus without, over the sweep dumps", "recovery_rate, transfer_repair"},
	{"service.submit_ms", "ms", "lower", "POST /v1/jobs round trip: spool, CRC, WAL append", "op_p50_ms, daemon_fleet"},
	{"service.upload_mb_s", "MiB/s", "higher", "container bytes / POST /v1/jobs seconds", "op_p50_ms, daemon_fleet"},
	{"wal.append_sync_ms", "ms", "lower", "wal.Log.Append + Sync on the daemon's filesystem, median", "service.submit_ms"},
	{"jobs.queue_wait_ms", "ms", "lower", "started_at - submitted_at from the job status documents, median", "op p90 (printed, not gated), daemon_fleet"},
	{"fleet.lease_rtt_ms", "ms", "lower", "POST /v1/shards/lease round trip, median", "op_p50_ms, daemon_fleet"},
	{"fleet.empty_lease_frac", "frac", "lower", "lease calls answered 204 (idle polling) / all lease calls", "op_p50_ms, daemon_fleet"},
	{"fleet.data_mb_s", "MiB/s", "higher", "GET /v1/shards/data bytes / seconds", "throughput_mb_s, daemon_fleet"},
	{"fleet.complete_ms", "ms", "lower", "POST /v1/shards/complete round trip (telemetry graft included), median", "op_p50_ms, daemon_fleet"},
	{"fleet.shard_ms", "ms", "lower", "fleet.shard_ns histogram p50", "op_p50_ms, daemon_fleet"},
	{"obs.trace_overhead_frac", "frac", "lower", "traced op-list wall / untraced op-list wall - 1", "none; a reading of tracing cost"},
	{"dumpfile.share", "frac", "lower", "dumpfile span time / op time, traced pass", "names the dominant layer"},
	{"core.mine.share", "frac", "lower", "mine stage wall / op time, traced pass", "names the dominant layer"},
	{"core.hunt.share", "frac", "lower", "directory + hunt + assemble stage wall, less repair, / op time", "names the dominant layer"},
	{"core.repair.share", "frac", "lower", "core.repair.s_per_mb x dump MiB of repair-on ops / op time", "names the dominant layer"},
	{"service.share", "frac", "lower", "submit + result round trips / op time", "names the dominant layer"},
	{"jobs.share", "frac", "lower", "queue wait / op time", "names the dominant layer"},
	{"fleet.share", "frac", "lower", "fleet.lease_wait_ns sum + plan, data and complete round trips / op time", "names the dominant layer"},
}

// sweep holds direct calls into each core and storage layer over the
// first few fixture dumps.
type sweep struct {
	dumps     int
	mib       float64
	openMs    []float64
	crcS      float64
	mineS     float64
	coverage  float64
	huntS     float64
	pairs     int64
	verify    obs.HistogramSnapshot
	repairS   float64
	extraKeys int
	walMs     []float64
	// The daemon probe, run when the op list does not use the daemon:
	// its tracer, the server's own collector, and its ops.
	probeTracer *tracer
	probeServer *obs.Collector
	probe       *pass
}

// mineOptions mirrors what the attack's mine stage derives from a
// default core.Config.
func mineOptions() core.MineOptions {
	return core.MineOptions{Tolerance: core.DefaultLitmusTolerance}
}

// runSweep times the layers one call at a time on the sweep dumps.
func runSweep(ctx context.Context, fx *fixture, cfg config) (*sweep, error) {
	n := min(cfg.sweepDumps, len(fx.dumps))
	sw := &sweep{dumps: n}
	dir := filepath.Join(fx.dir, "sweep")
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	huntCol := obs.NewCollector()
	for _, d := range fx.dumps[:n] {
		sw.mib += float64(d.size) / (1 << 20)
		path := filepath.Join(dir, fmt.Sprintf("dump-%d.cbd", d.seed))
		var buf bytes.Buffer
		if err := dumpfile.Write(&buf, containerMeta(fx.w.reboot), d.image); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
			return nil, err
		}
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			f, err := dumpfile.Open(path)
			if err != nil {
				return nil, err
			}
			f.Close()
			sw.openMs = append(sw.openMs, float64(time.Since(t0))/1e6)
		}
		f, err := dumpfile.Open(path)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = f.VerifyChecksum()
		sw.crcS += time.Since(t0).Seconds()
		f.Close()
		if err != nil {
			return nil, err
		}

		t0 = time.Now()
		mined, err := core.MineKeysSource(ctx, core.BytesSource(d.image), mineOptions())
		sw.mineS += time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		sw.coverage += mined.Coverage(mined.InferStride()) / float64(n)

		t0 = time.Now()
		off, err := core.AttackContext(ctx, d.image, core.Config{Mine: mined, Tracer: huntCol})
		offS := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		on, err := core.AttackContext(ctx, d.image, core.Config{Mine: mined, RepairFlips: 1, Tracer: obs.NewCollector()})
		onS := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		sw.huntS += offS
		sw.repairS += onS - offS
		sw.pairs += off.PairsTested
		sw.extraKeys += scoreKeys(d.truth, fingerprints(on.Masters())).recovered - scoreKeys(d.truth, fingerprints(off.Masters())).recovered
	}
	if h := huntCol.Histogram("hunt.verify_ns"); h != nil {
		sw.verify = h.Snapshot("hunt.verify_ns")
	}

	var err error
	if sw.walMs, err = walProbe(filepath.Join(fx.dir, "wal-probe"), 40); err != nil {
		return nil, err
	}
	if !fx.w.remote {
		if err := sw.runDaemonProbe(ctx, fx, n); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// walProbe times n appends of a job-event-sized record, each followed by
// Sync, on a fresh log.
func walProbe(dir string, n int) ([]float64, error) {
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	rec := bytes.Repeat([]byte("x"), 256)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := l.Append(rec); err != nil {
			l.Close()
			return nil, err
		}
		if err := l.Sync(); err != nil {
			l.Close()
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out, l.Close()
}

// runDaemonProbe submits the sweep dumps, one at a time, to a traced
// daemon, so the service, jobs and fleet layers are measured on this
// workload's inputs too.
func (sw *sweep) runDaemonProbe(ctx context.Context, fx *fixture, n int) error {
	t := newTracer()
	d, err := startDaemon(filepath.Join(fx.dir, "coldbootd-probe"), t)
	if err != nil {
		return err
	}
	// One client at a time: the probe measures the layers, not queueing.
	probe := workload{name: fx.w.name + "-daemon-probe", remote: true}
	var p pass
	for _, dump := range fx.dumps[:n] {
		if err := encodeContainer(dump, containerMeta(fx.w.reboot)); err != nil {
			d.stop()
			return err
		}
		r := runPass(ctx, &fixture{w: probe, dumps: []*capturedDump{dump}}, d, 1, t)
		dump.container = nil
		p.latMs = append(p.latMs, r.latMs...)
		p.queueWaitMs = append(p.queueWaitMs, r.queueWaitMs...)
		if p.firstErr == nil {
			p.firstErr = r.firstErr
		}
	}
	sw.probeTracer, sw.probe = t, &p
	if err := d.stop(); err != nil {
		return err
	}
	sw.probeServer = d.svc.Collector()
	return p.firstErr
}
