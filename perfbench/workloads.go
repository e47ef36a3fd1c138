package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/dumpfile"
)

// opTimeout bounds one op; an op that reaches it fails.
const opTimeout = time.Minute

// workload is one fixed list of inputs and the way each op drives the
// system with one of them.
type workload struct {
	name string
	// reboot selects same-machine-reboot captures (retention 1.0) instead
	// of a −50 °C, 2 s DIMM transfer (retention ≈ 0.997).
	reboot bool
	// dumps is the number of distinct captures; 0 means one per op.
	dumps int
	// opsPerSecond sizes the op list from --seconds: the list runs for
	// about that long on a 2-vCPU Xeon.
	opsPerSecond float64
	// repair is the op's RepairFlips.
	repair int
	// remote ops go through the in-process coldbootd and its fleet.
	remote bool
	// refPerOp is how many reference kernels run before each op: about 5%
	// of the op's time.
	refPerOp int
}

var workloads = []workload{
	// coldboot -analyze: open the container, verify its CRC, stream the
	// campaign with repair off.
	{name: "reboot_stream", reboot: true, dumps: 32, opsPerSecond: 18, refPerOp: 2},
	// The coldboot CLI default on a decayed capture: repair one flip.
	{name: "transfer_repair", opsPerSecond: 1.4, repair: 1, refPerOp: 24},
	// coldbootd with two fleet workers and two closed-loop clients.
	{name: "daemon_fleet", dumps: 32, opsPerSecond: 5, remote: true, refPerOp: 15},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings. The zero values of the size fields take
// the workload's defaults; the tests shrink them.
type config struct {
	seed    int64
	seconds int
	trace   bool
	// memBytes is the simulated DIMM size (default 2 MiB).
	memBytes int
	// dumps and ops override the workload's fixture and op-list sizes.
	dumps, ops int
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// sweepDumps is how many fixture dumps the per-layer sweep uses.
	sweepDumps int
	// workDir holds containers and the daemon's data dir; outDir
	// receives the traced pass's Chrome trace and per-layer JSON.
	workDir, outDir string
}

func (c config) opCount(w workload) int {
	if c.ops > 0 {
		return c.ops
	}
	return int(math.Ceil(float64(c.seconds) * w.opsPerSecond))
}

func (c config) dumpCount(w workload) int {
	switch {
	case c.dumps > 0:
		return c.dumps
	case w.dumps > 0:
		return w.dumps
	}
	return c.opCount(w)
}

// fixture is a workload's set-up: its captures, their containers, and
// for remote workloads the running daemon.
type fixture struct {
	w     workload
	dumps []*capturedDump
	dir   string
	d     *daemon
	// captureS is the coldboot.Capture time of each dump, and ref the
	// reference-kernel samples taken after each capture.
	captureS, ref []float64
}

// setUp captures the fixture, writes or encodes its containers, and boots
// the daemon: everything up to the first timed op.
func setUp(w workload, cfg config, dir string) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	fx := &fixture{w: w, dir: dir}
	for i, seed := range scenarioSeeds(cfg.seed, cfg.dumpCount(w)) {
		t0 := time.Now()
		d, err := capture(seed, w.reboot, cfg.memBytes)
		fx.captureS = append(fx.captureS, time.Since(t0).Seconds())
		fx.ref = append(fx.ref, refKernel())
		if err != nil {
			return nil, err
		}
		fx.dumps = append(fx.dumps, d)
		if !w.reboot && !w.remote {
			continue // resident dumps need no container
		}
		if err := encodeContainer(d, containerMeta(w.reboot)); err != nil {
			return nil, err
		}
		if !w.remote {
			if err := writeContainer(d, dir); err != nil {
				return nil, err
			}
			d.container = nil
		}
		if i >= cfg.sweepDumps {
			d.image = nil // only the sweep reads images after set-up
		}
	}
	if w.remote {
		var err error
		if fx.d, err = startDaemon(filepath.Join(dir, "coldbootd"), nil); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

func (fx *fixture) close() error {
	var err error
	if fx.d != nil {
		err = fx.d.stop()
	}
	if rmErr := os.RemoveAll(fx.dir); err == nil {
		err = rmErr
	}
	return err
}

// pass is the outcome of running the op list once.
type pass struct {
	latMs    []float64 // per-op latency
	wallS    float64
	mib      float64 // dump MiB taken to a checked result
	cpuS     float64 // process user+sys CPU seconds
	allocMiB float64 // runtime.MemStats.TotalAlloc growth
	// ref holds the reference-kernel samples taken between ops.
	ref       []float64
	score     score
	attempted int
	failed    int
	// inconsistent counts ops whose keys differ from an earlier op on the
	// same dump.
	inconsistent int
	queueWaitMs  []float64 // remote workloads, traced pass only
	firstErr     error
}

// opOutcome is one op's result before tallying.
type opOutcome struct {
	keys []string // fingerprints of the returned keys
	lat  time.Duration
	wait time.Duration
	err  error
}

// runPass runs the op list; a nil tracer is the untraced pass. On a remote
// workload, d is the daemon the clients talk to.
func runPass(ctx context.Context, fx *fixture, d *daemon, ops int, t *tracer) pass {
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()

	outs := make([]opOutcome, ops)
	var ref []float64
	if fx.w.remote {
		ref = runRemote(ctx, fx, d, outs, t)
	} else {
		for i := range outs {
			ref = append(ref, calibrate(fx.w.refPerOp)...)
			outs[i] = runLocalOp(ctx, fx.w, fx.dumps[i%len(fx.dumps)], t)
		}
	}

	p := pass{wallS: time.Since(t0).Seconds(), cpuS: cpuSeconds() - cpu0, ref: ref}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.allocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)

	seen := make(map[int64]string)
	for i, o := range outs {
		d := fx.dumps[i%len(fx.dumps)]
		p.attempted++
		if o.err != nil {
			p.failed++
			p.score.planted += len(d.truth)
			p.latMs = append(p.latMs, float64(opTimeout)/1e6) // a failed op misses every latency limit
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d (seed %d): %w", i, d.seed, o.err)
			}
			continue
		}
		p.latMs = append(p.latMs, float64(o.lat)/1e6)
		p.mib += float64(d.size) / (1 << 20)
		p.score.add(scoreKeys(d.truth, o.keys))
		sig := keySignature(o.keys)
		if prev, ok := seen[d.seed]; ok && prev != sig {
			p.inconsistent++
		}
		seen[d.seed] = sig
		if fx.w.remote && t != nil {
			p.queueWaitMs = append(p.queueWaitMs, float64(o.wait)/1e6)
		}
	}
	return p
}

// runLocalOp analyses one dump in-process.
func runLocalOp(ctx context.Context, w workload, d *capturedDump, t *tracer) opOutcome {
	opID, endOp := t.begin(0, "bench", "op "+w.name)
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	start := time.Now()
	var o opOutcome
	if w.reboot {
		o.keys, o.err = streamAnalyze(ctx, d.path, t, opID)
	} else {
		_, end := t.begin(opID, "core", "core.AttackContext")
		res, err := core.AttackContext(ctx, d.image, core.Config{RepairFlips: w.repair, Tracer: t.obsTracer()})
		end()
		if res != nil {
			o.keys = fingerprints(res.Masters())
		}
		o.err = err
	}
	o.lat = time.Since(start)
	cancel()
	endOp()
	return o
}

// streamAnalyze is the coldboot -analyze path: open the container, verify
// its CRC, and stream the campaign over it with repair off.
func streamAnalyze(ctx context.Context, path string, t *tracer, parent uint64) ([]string, error) {
	_, end := t.begin(parent, "dumpfile", "dumpfile.Open")
	f, err := dumpfile.Open(path)
	end()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, end = t.begin(parent, "dumpfile", "File.VerifyChecksum")
	err = f.VerifyChecksum()
	end()
	if err != nil {
		return nil, err
	}
	src, err := core.ReaderAtSource(f, f.Size())
	if err != nil {
		return nil, err
	}
	_, end = t.begin(parent, "core", "core.RunCampaignSource")
	res, err := core.RunCampaignSource(ctx, src, core.CampaignConfig{Attack: core.Config{Tracer: t.obsTracer()}})
	end()
	if err != nil {
		return nil, err
	}
	return fingerprints(res.Masters()), nil
}

// runRemote is the closed loop: two clients, each submitting its next
// container when its previous result document arrives. Client c runs ops
// c, c+2, c+4, ... so the assignment is fixed. Each client times the
// reference kernel before each op; the samples are returned.
func runRemote(ctx context.Context, fx *fixture, d *daemon, outs []opOutcome, t *tracer) []float64 {
	const clients = 2
	var (
		wg    sync.WaitGroup
		refMu sync.Mutex
		ref   []float64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient(t)
			defer client.CloseIdleConnections()
			for i := c; i < len(outs); i += clients {
				dump := fx.dumps[i%len(fx.dumps)]
				samples := calibrate(fx.w.refPerOp)
				refMu.Lock()
				ref = append(ref, samples...)
				refMu.Unlock()
				opID, endOp := t.begin(0, "bench", "op "+fx.w.name)
				opCtx, cancel := context.WithTimeout(withSpan(ctx, opID), opTimeout)
				start := time.Now()
				res, err := analyzeRemote(opCtx, client, d.base, dump.container, t != nil)
				lat := time.Since(start)
				cancel()
				endOp()
				// The result document carries fingerprints, never keys.
				outs[i] = opOutcome{keys: res.fingerprints, lat: lat, err: err, wait: res.queueWait}
			}
		}(c)
	}
	wg.Wait()
	return ref
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
