package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"coldboot/internal/format"
	"coldboot/internal/obs"
)

// Campaign orchestration. The paper (§III-C, Attack Performance): "since
// the task is fully parallelizable, we can analyze gigabytes of data in a
// matter of hours using multiple machines. For example, using a machine
// with an eight-core Intel Xeon D1541 CPU, we are able to fully search an
// 8 GB DDR4 DRAM image in just over 21 hours."
//
// A Campaign shards a large dump into worker-sized segments, mines keys
// once globally (mining is cheap and the key pool spans the whole image),
// and fans the expensive AES-schedule scan out across shards — which may
// run on separate goroutines here, or be dispatched to separate machines by
// the caller via the Shard/MergeShardResults primitives. The dump itself is
// read through a BlockSource one mining window / one shard at a time, so an
// on-disk multi-GB capture (dumpfile's streaming reader) is analyzed in
// constant memory. Progress reporting and context cancellation — now
// per scan chunk WITHIN a shard, not just between shards — make multi-hour
// campaigns operable.

// Shard is one independently scannable piece of a dump.
type Shard struct {
	Index int
	// FirstBlock and Blocks delimit the shard within the full dump.
	FirstBlock int
	Blocks     int
}

// ShardResult carries one shard's findings back for merging. Keys arrive
// untagged/unfiltered (see Config.skipFormatFilter): LUKS2 pair tagging
// and format filtering run once over the merged set, because a schedule
// pair can straddle a shard boundary. Volume offsets are already rebased
// to full-dump coordinates.
type ShardResult struct {
	Shard   Shard
	Keys    []FoundKey
	Volumes []format.Volume
	Pairs   int64
}

// Progress is delivered to the campaign's observer after each shard.
type Progress struct {
	DoneShards, TotalShards int
	DoneBlocks, TotalBlocks int
	KeysFound               int
}

// CampaignConfig tunes a sharded attack.
type CampaignConfig struct {
	// Attack is the per-shard attack configuration (Workers applies within
	// each shard; shards themselves run Parallel at a time). Attack.Tracer
	// also observes the campaign: the global mining pass runs under the
	// "campaign.mine" stage, per-shard pipelines aggregate under the usual
	// stage names, and the final dedup under "campaign.merge".
	Attack Config
	// ShardBlocks is the shard size in 64-byte blocks (default 65536,
	// i.e. 4 MiB shards).
	ShardBlocks int
	// Parallel is how many shards run concurrently. Zero (the zero value)
	// means one in-flight shard per CPU; callers never need to set it. When
	// Attack.Workers is also zero, the per-shard worker count is divided by
	// Parallel so the two levels together target one goroutine per CPU
	// instead of multiplying into NumCPU².
	Parallel int
	// OnProgress, if non-nil, is called after each shard completes.
	OnProgress func(Progress)
	// TraceID, when non-empty, names the campaign's distributed trace
	// instead of letting the plan mint one — callers that already minted
	// an ID (the analysis service, which surfaces it on the job record)
	// pass it down so the wire plan, shard spans, and job status all
	// agree on one identifier.
	TraceID string
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.ShardBlocks == 0 {
		c.ShardBlocks = 65536
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	if c.Attack.Workers <= 0 {
		// Split the CPU budget between shard-level and block-level
		// parallelism rather than letting the defaults multiply.
		c.Attack.Workers = runtime.NumCPU() / c.Parallel
		if c.Attack.Workers < 1 {
			c.Attack.Workers = 1
		}
	}
	return c
}

// Shards splits a dump of n blocks into segments. Shards overlap by the
// schedule size so a key table straddling a boundary is fully visible to
// at least one shard.
func Shards(totalBlocks, shardBlocks, overlapBlocks int) []Shard {
	if shardBlocks <= 0 {
		shardBlocks = totalBlocks
	}
	var out []Shard
	for first := 0; first < totalBlocks; first += shardBlocks {
		n := shardBlocks + overlapBlocks
		if first+n > totalBlocks {
			n = totalBlocks - first
		}
		out = append(out, Shard{Index: len(out), FirstBlock: first, Blocks: n})
		if first+n >= totalBlocks && first+shardBlocks >= totalBlocks {
			break
		}
	}
	return out
}

// RunCampaign executes a sharded attack over a (possibly very large)
// memory-resident dump. Cancellation stops the campaign mid-shard — each
// shard's scan polls the context every chunk — and the merged results
// found so far are returned together with ctx.Err().
func RunCampaign(ctx context.Context, dump []byte, cfg CampaignConfig) (*Result, error) {
	if len(dump)%BlockBytes != 0 {
		return nil, fmt.Errorf("core: dump length %d not block aligned", len(dump))
	}
	return RunCampaignSource(ctx, BytesSource(dump), cfg)
}

// RunCampaignSource is RunCampaign over a BlockSource: the image is read
// one mining window / one shard at a time and never held fully resident,
// so dumps larger than memory stream from disk (pair with dumpfile.Open).
//
// It is the in-process composition of the plan primitives — Plan, a
// concurrent local shard loop over ScanShardBytes, Finalize — that
// internal/fleet distributes across worker processes. Both paths produce
// byte-identical results because they share every phase but the shard
// transport.
func RunCampaignSource(ctx context.Context, src BlockSource, cfg CampaignConfig) (*Result, error) {
	plan, err := PlanCampaignSource(ctx, src, cfg)
	if plan == nil {
		return nil, err
	}
	defer plan.Close()
	if err != nil {
		return plan.Result(), err
	}
	cfg = plan.cfg
	totalBlocks := plan.TotalBlocks

	// Shard buffers are pooled per in-flight worker; memory-resident
	// sources lend subslices instead (no copy at all).
	var bufs chan []byte
	if _, resident := src.(sliceSource); !resident {
		bufs = make(chan []byte, cfg.Parallel)
		for i := 0; i < cfg.Parallel; i++ {
			bufs <- make([]byte, (cfg.ShardBlocks+plan.Overlap)*BlockBytes)
		}
	}

	var (
		mu        sync.Mutex
		done      int
		doneBlk   int
		pairs     int64
		collected []FoundKey
		colVols   []format.Volume
		campErr   error
	)
	setErr := func(err error) {
		if err != nil && campErr == nil {
			campErr = err
		}
	}
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
shardLoop:
	for _, sh := range plan.Shards {
		select {
		case <-ctx.Done():
			mu.Lock()
			setErr(ctx.Err())
			mu.Unlock()
			break shardLoop
		default:
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(sh Shard) {
			defer wg.Done()
			defer func() { <-sem }()
			shSpan := plan.ShardSpan(sh)
			defer shSpan.End()
			sub, release, err := shardBytes(src, sh, bufs)
			if err != nil {
				mu.Lock()
				setErr(err)
				mu.Unlock()
				return
			}
			sr, serr := plan.ScanShardBytes(ctx, sub, sh, shSpan)
			release()
			shSpan.SetAttr("keys", strconv.Itoa(len(sr.Keys)))
			mu.Lock()
			setErr(serr)
			collected = append(collected, sr.Keys...)
			colVols = append(colVols, sr.Volumes...)
			pairs += sr.Pairs
			done++
			// A shard owns the blocks up to the next shard's first; its
			// overlap tail is counted there, so every block counts once.
			owned := totalBlocks - sh.FirstBlock
			if sh.Index+1 < len(plan.Shards) {
				owned = plan.Shards[sh.Index+1].FirstBlock - sh.FirstBlock
			}
			doneBlk += owned
			if cfg.OnProgress != nil {
				cfg.OnProgress(Progress{
					DoneShards: done, TotalShards: len(plan.Shards),
					DoneBlocks: doneBlk, TotalBlocks: totalBlocks,
					KeysFound: len(collected),
				})
			}
			blk := doneBlk
			mu.Unlock()
			plan.tracer.Progress("campaign", int64(blk), int64(totalBlocks))
		}(sh)
	}
	wg.Wait()
	res := plan.Finalize(collected, colVols, pairs)
	return res, campErr
}

// mergeVolumes deduplicates volume sightings across shards (overlap
// regions sight the same header twice) and orders them by offset.
func mergeVolumes(vols []format.Volume) []format.Volume {
	if len(vols) == 0 {
		return nil
	}
	byOff := make(map[int]format.Volume, len(vols))
	for _, v := range vols {
		byOff[v.Offset] = v
	}
	return sortedVolumes(byOff)
}

// startCampaignSpan opens the campaign's root span, nesting it under the
// caller's span (coldbootd's per-job span) when one is provided.
func startCampaignSpan(tracer obs.Tracer, parent obs.Span, totalBlocks int) obs.Span {
	attrs := []obs.Attr{obs.A("blocks", strconv.Itoa(totalBlocks))}
	if parent != nil {
		return parent.Child("campaign", attrs...)
	}
	return tracer.StartSpan("campaign", attrs...)
}

// shardBytes materializes one shard's bytes: a borrowed subslice for
// memory-resident sources, or a pooled buffer filled by ReadBlocks for
// streaming ones. release returns a pooled buffer; it must be called once
// the shard scan is done with the bytes.
func shardBytes(src BlockSource, sh Shard, bufs chan []byte) (sub []byte, release func(), err error) {
	if s, ok := src.(sliceSource); ok {
		return s.slice(sh.FirstBlock, sh.Blocks), func() {}, nil
	}
	buf := <-bufs
	sub = buf[:sh.Blocks*BlockBytes]
	if err := src.ReadBlocks(sh.FirstBlock, sub); err != nil {
		bufs <- buf
		return nil, nil, fmt.Errorf("core: reading shard %d: %w", sh.Index, err)
	}
	return sub, func() { bufs <- buf }, nil
}

// shardMineView projects the global mining result onto one shard: the same
// keys, with sighting positions rebased to shard-local block indices and
// out-of-shard sightings dropped. The zero-block skip set the shard attack
// derives from it is exactly what a fresh mine over the shard's bytes would
// produce (the blocks are the same bytes), without re-paying the mining
// pass per shard.
func shardMineView(mine *MineResult, sh Shard) *MineResult {
	out := &MineResult{BlocksScanned: sh.Blocks}
	for _, k := range mine.Keys {
		var pos []int
		for _, p := range k.Positions {
			if p >= sh.FirstBlock && p < sh.FirstBlock+sh.Blocks {
				pos = append(pos, p-sh.FirstBlock)
			}
		}
		if pos != nil {
			out.BlocksPassed += len(pos)
			out.Keys = append(out.Keys, MinedKey{Key: k.Key, Count: len(pos), Positions: pos})
		}
	}
	return out
}

// scanShard runs the per-block scan of the attack pipeline over one shard,
// using the globally mined key pool and directory. A cancelled context
// surfaces the partial findings together with ctx.Err().
func scanShard(ctx context.Context, sub []byte, sh Shard, mine *MineResult, directory KeyDirectory, cfg Config, span obs.Span) (ShardResult, error) {
	shiftedDir := func(b int) [][]byte { return directory(b + sh.FirstBlock) }
	res, err := AttackContext(ctx, sub, Config{
		Variant:         cfg.Variant,
		Formats:         cfg.Formats,
		LitmusTolerance: cfg.LitmusTolerance,
		AESTolerance:    cfg.AESTolerance,
		MinVerifyScore:  cfg.MinVerifyScore,
		RepairFlips:     cfg.RepairFlips,
		Workers:         cfg.Workers,
		KeysForBlock:    shiftedDir,
		Mine:            shardMineView(mine, sh),
		// All shards share the campaign's schedule cache: a master
		// re-sighted in an overlap region expands once, not once per shard.
		ScheduleCache: cfg.ScheduleCache,
		Tracer:        cfg.Tracer,
		Span:          span,
		// Tagging and filtering happen after the cross-shard merge.
		skipFormatFilter: true,
	})
	out := ShardResult{Shard: sh}
	if res == nil {
		return out, err
	}
	for _, k := range res.Keys {
		k.TableStart += sh.FirstBlock * BlockBytes
		out.Keys = append(out.Keys, k)
	}
	for _, v := range res.Volumes {
		v.Offset += sh.FirstBlock * BlockBytes
		out.Volumes = append(out.Volumes, v)
	}
	out.Pairs = res.PairsTested
	return out, err
}

// MergeShardResults deduplicates findings across shards (overlap regions
// produce the same key twice) using the same best-score-per-region,
// per-format rule as the single-dump attack's alias suppression.
func MergeShardResults(keys []FoundKey, schedBytes int) []FoundKey {
	sortFoundKeys(keys)
	return suppressAliases(keys, schedBytes)
}
