package core

import (
	"bytes"
	"context"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

func TestShardsCoverEverything(t *testing.T) {
	shards := Shards(100000, 8192, 8)
	covered := make([]bool, 100000)
	for _, sh := range shards {
		for b := sh.FirstBlock; b < sh.FirstBlock+sh.Blocks; b++ {
			covered[b] = true
		}
	}
	for b, ok := range covered {
		if !ok {
			t.Fatalf("block %d uncovered", b)
		}
	}
	// Adjacent shards overlap by the requested amount.
	if shards[1].FirstBlock != 8192 || shards[0].Blocks != 8192+8 {
		t.Errorf("unexpected sharding: %+v %+v", shards[0], shards[1])
	}
}

func TestShardsDegenerate(t *testing.T) {
	if got := Shards(100, 0, 4); len(got) != 1 || got[0].Blocks != 100 {
		t.Errorf("zero shard size: %+v", got)
	}
	if got := Shards(10, 100, 4); len(got) != 1 || got[0].Blocks != 10 {
		t.Errorf("oversized shard: %+v", got)
	}
}

func TestCampaignMatchesSingleAttack(t *testing.T) {
	master := testMaster(300, 32)
	const tableStart = 4096*64 + 96
	dump := buildAttackDump(t, 2<<20, 30, workload.LightSystem, master, tableStart)

	single, err := Attack(dump, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var progressCalls int
	var last Progress
	camp, err := RunCampaign(context.Background(), dump, CampaignConfig{
		ShardBlocks: 4096, // 256 KiB shards: the table straddles boundaries
		Parallel:    4,
		OnProgress: func(p Progress) {
			progressCalls++
			if p.TotalBlocks != len(dump)/64 || p.DoneBlocks > p.TotalBlocks {
				t.Errorf("bad progress: %+v", p)
			}
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Keys) != len(single.Keys) {
		t.Fatalf("campaign found %d keys, single attack %d", len(camp.Keys), len(single.Keys))
	}
	if !bytes.Equal(camp.Keys[0].Master, master) {
		t.Error("campaign recovered wrong key")
	}
	if camp.Keys[0].TableStart != tableStart {
		t.Errorf("campaign table start %d, want %d", camp.Keys[0].TableStart, tableStart)
	}
	if progressCalls == 0 {
		t.Error("no progress reported")
	}
	// Overlap blocks are scanned twice but count once.
	if last.DoneBlocks != last.TotalBlocks {
		t.Errorf("final progress %d of %d blocks", last.DoneBlocks, last.TotalBlocks)
	}
}

func TestCampaignTableStraddlingShardBoundary(t *testing.T) {
	// Put the schedule right across a shard boundary: the overlap region
	// must keep it visible to one shard in full.
	master := testMaster(301, 32)
	shardBlocks := 4096
	tableStart := shardBlocks*64 - 128 // straddles the first boundary
	dump := buildAttackDump(t, 2<<20, 31, workload.LightSystem, master, tableStart)
	camp, err := RunCampaign(context.Background(), dump, CampaignConfig{ShardBlocks: shardBlocks})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range camp.Keys {
		if bytes.Equal(k.Master, master) {
			found = true
		}
	}
	if !found {
		t.Fatal("boundary-straddling key lost")
	}
}

func TestCampaignCancellation(t *testing.T) {
	dump := buildAttackDump(t, 1<<20, 32, workload.LightSystem, testMaster(302, 32), 4096*64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first shard
	res, err := RunCampaign(ctx, dump, CampaignConfig{ShardBlocks: 1024})
	if err == nil {
		t.Error("cancelled campaign reported success")
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no partial result")
	}
	if res.PairsTested != 0 {
		t.Error("cancelled-before-start campaign scanned pairs")
	}
}

func TestCampaignRejectsUnalignedDump(t *testing.T) {
	if _, err := RunCampaign(context.Background(), make([]byte, 100), CampaignConfig{}); err == nil {
		t.Error("unaligned dump accepted")
	}
}

func TestMergeShardResultsDedup(t *testing.T) {
	k1 := FoundKey{Master: []byte("a"), TableStart: 1000, Score: 0.9}
	k1dup := FoundKey{Master: []byte("a"), TableStart: 1000, Score: 0.95}
	k2 := FoundKey{Master: []byte("b"), TableStart: 5000, Score: 0.8}
	out := MergeShardResults([]FoundKey{k1, k1dup, k2}, 240)
	if len(out) != 2 {
		t.Fatalf("merged to %d keys, want 2", len(out))
	}
	if out[0].Score != 0.95 {
		t.Error("merge did not keep the best-scoring duplicate")
	}
}

func TestCampaignXTSPair(t *testing.T) {
	m1 := testMaster(303, 32)
	m2 := testMaster(304, 32)
	plain := make([]byte, 2<<20)
	workload.Fill(plain, 33, workload.LightSystem)
	const tableStart = 4096 * 64
	copy(plain[tableStart:], aes.ExpandKeyBytes(m1))
	copy(plain[tableStart+240:], aes.ExpandKeyBytes(m2))
	s := scramble.NewSkylakeDDR4(1234)
	dump := make([]byte, len(plain))
	s.Scramble(dump, plain, 0)
	camp, err := RunCampaign(context.Background(), dump, CampaignConfig{ShardBlocks: 2048, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, k := range camp.Keys {
		got[string(k.Master)] = true
	}
	if !got[string(m1)] || !got[string(m2)] {
		t.Fatalf("XTS pair not recovered by campaign (%d keys)", len(camp.Keys))
	}
}
