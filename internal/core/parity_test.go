package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/workload"
)

// decayBits flips n random bits across buf, mirroring asymmetric-agnostic
// decay used by the attack scenario tests.
func decayBits(buf []byte, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		bit := rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << uint(bit%8)
	}
}

// TestMineKeysParity: the production miner (content slab + probe table +
// pigeonhole merge) must reproduce the seed map-based miner exactly,
// including merge order, majority votes, and position ordering.
func TestMineKeysParity(t *testing.T) {
	cases := []struct {
		name  string
		size  int
		seed  int64
		decay int
		opt   MineOptions
	}{
		{"clean_512KiB", 512 << 10, 11, 0, MineOptions{}},
		{"decay_0.1pct", 512 << 10, 12, 512 << 10 / 125, MineOptions{}},
		{"decay_1pct_merge", 256 << 10, 13, 256 << 10 * 8 / 100, MineOptions{}},
		{"merge_distance_4", 256 << 10, 14, 256 << 10 / 50, MineOptions{MergeDistance: 4}},
		{"min_count_3", 256 << 10, 15, 256 << 10 / 100, MineOptions{MinCount: 3}},
		{"max_bytes_cap", 512 << 10, 16, 512 << 10 / 200, MineOptions{MaxBytes: 128 << 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dump := buildAttackDump(t, tc.size, tc.seed, workload.LightSystem,
				testMaster(tc.seed*7, 32), 100*BlockBytes)
			if tc.decay > 0 {
				decayBits(dump, tc.seed+1000, tc.decay)
			}
			got, err := MineKeys(dump, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want := refMineKeys(dump, tc.opt)
			if got.BlocksScanned != want.BlocksScanned || got.BlocksPassed != want.BlocksPassed {
				t.Fatalf("counters: got (%d scanned, %d passed), want (%d, %d)",
					got.BlocksScanned, got.BlocksPassed, want.BlocksScanned, want.BlocksPassed)
			}
			if len(got.Keys) != len(want.Keys) {
				t.Fatalf("key count: got %d, want %d", len(got.Keys), len(want.Keys))
			}
			for i := range want.Keys {
				if !reflect.DeepEqual(got.Keys[i], want.Keys[i]) {
					t.Fatalf("key %d differs:\n got  %+v\n want %+v", i, got.Keys[i], want.Keys[i])
				}
			}
		})
	}
}

// TestAESLitmusParity: the prefiltered litmus must produce the identical hit
// list as the seed scan on clean schedules, decayed schedules, and noise.
func TestAESLitmusParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	block := make([]byte, BlockBytes)
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		sched := aes.ExpandKeyBytes(testMaster(int64(v.Nk()), v.KeyBytes()))
		for trial := 0; trial < 400; trial++ {
			switch trial % 4 {
			case 0: // pure noise
				rng.Read(block)
			case 1: // clean schedule fragment at a random alignment
				off := rng.Intn(len(sched) - BlockBytes)
				copy(block, sched[off:off+BlockBytes])
			case 2: // decayed schedule fragment
				off := rng.Intn(len(sched) - BlockBytes)
				copy(block, sched[off:off+BlockBytes])
				for i := 0; i < 1+rng.Intn(8); i++ {
					bit := rng.Intn(BlockBytes * 8)
					block[bit/8] ^= 1 << uint(bit%8)
				}
			case 3: // low-entropy block (degenerate-ish)
				b := byte(rng.Intn(4))
				for i := range block {
					block[i] = b
				}
			}
			for _, tol := range []int{0, DefaultAESTolerance, 12} {
				got := AESLitmus(block, v, tol)
				want := refAESLitmus(block, v, tol)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v tol %d trial %d: hits differ\n got  %+v\n want %+v\nblock % x",
						v, tol, trial, got, want, block)
				}
			}
		}
	}
}

// TestVerifyRepairParity: direct comparisons of the scratch-based verify,
// repair, ground-repair, and refine stages against the seed references on a
// live ground scenario (real directory, real decayed windows).
func TestVerifyRepairParity(t *testing.T) {
	if raceEnabled {
		t.Skip("serial differential oracle: nothing for the race detector, and the reference search is too slow under it")
	}
	dump, groundDump, master, tableStart := buildGroundScenario(t, 2)
	mine, err := MineKeys(dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stride := mine.InferStride()
	if stride == 0 {
		t.Fatal("ground scenario produced no stride")
	}
	directory := ResidueDirectory(mine, stride)
	v := aes.AES256

	headBlock := tableStart / BlockBytes
	stored := dump[headBlock*BlockBytes : (headBlock+1)*BlockBytes]
	descrambled := make([]byte, BlockBytes)
	var anyHit bool
	for _, key := range directory(headBlock) {
		bitutil.XORBlock64(descrambled, stored, key)
		hits := AESLitmus(descrambled, v, DefaultAESTolerance)
		if wantHits := refAESLitmus(descrambled, v, DefaultAESTolerance); !reflect.DeepEqual(hits, wantHits) {
			t.Fatalf("litmus parity on ground block: got %+v want %+v", hits, wantHits)
		}
		for _, hit := range hits {
			anyHit = true
			gm := MasterFromHit(descrambled, hit, v)
			if wm := refMasterFromHit(descrambled, hit, v); !reflect.DeepEqual(gm, wm) {
				t.Fatalf("MasterFromHit parity: got % x want % x", gm, wm)
			}
			gs := VerifySchedule(dump, directory, gm, hit.TableStart(headBlock), v)
			if ws := refVerifySchedule(dump, directory, gm, hit.TableStart(headBlock), v); gs != ws {
				t.Fatalf("VerifySchedule parity: got %v want %v", gs, ws)
			}

			rm, rs := RepairWindow(dump, directory, descrambled, headBlock, hit, v, 2, 0.80)
			wrm, wrs := refRepairWindow(dump, directory, descrambled, headBlock, hit, v, 2, 0.80)
			if rs != wrs || !reflect.DeepEqual(rm, wrm) {
				t.Fatalf("RepairWindow parity: got (% x, %v) want (% x, %v)", rm, rs, wrm, wrs)
			}

			gmaster, gscore := RepairWindowGround(dump, groundDump, directory, descrambled,
				headBlock, hit, v, 3, 0.80)
			wgm, wgs := refRepairWindowGround(dump, groundDump, directory, descrambled,
				headBlock, hit, v, 3, 0.80)
			if gscore != wgs || !reflect.DeepEqual(gmaster, wgm) {
				t.Fatalf("RepairWindowGround parity: got (% x, %v) want (% x, %v)",
					gmaster, gscore, wgm, wgs)
			}

			fm, fs := RefineMaster(dump, directory, gmaster, tableStart, v)
			wfm, wfs := refRefineMaster(dump, directory, wgm, tableStart, v)
			if fs != wfs || !reflect.DeepEqual(fm, wfm) {
				t.Fatalf("RefineMaster parity: got (% x, %v) want (% x, %v)", fm, fs, wfm, wfs)
			}
			if string(fm) != string(master) {
				t.Fatalf("refined master % x != planted % x", fm, master)
			}
		}
	}
	if !anyHit {
		t.Fatal("ground scenario produced no litmus hits on the head block")
	}
}

// attackParityScenarios are TestAttackPipelineParity's fixtures; the
// external repair-gate soundness test reuses them through ParityFixture.
var attackParityScenarios = []struct {
	name  string
	build func(t *testing.T) ([]byte, Config)
}{
	{"clean_scrambled_1MiB", func(t *testing.T) ([]byte, Config) {
		dump := buildAttackDump(t, 1<<20, 61, workload.LightSystem,
			testMaster(601, 32), 4096*BlockBytes+128)
		return dump, Config{Workers: 1}
	}},
	{"decay_repair1", func(t *testing.T) ([]byte, Config) {
		dump := buildAttackDump(t, 1<<20, 62, workload.LightSystem,
			testMaster(602, 32), 2048*BlockBytes)
		decayBits(dump, 620, len(dump)*8/2000)
		return dump, Config{Workers: 1, RepairFlips: 1}
	}},
	{"corrupt_window_repair2", func(t *testing.T) ([]byte, Config) {
		dump := buildAttackDump(t, 1<<20, 63, workload.LightSystem,
			testMaster(603, 32), 1024*BlockBytes)
		// Flip a bit in the first word of several interior table blocks so
		// the double-flip repair path has real work.
		for _, blk := range []int{1025, 1026, 1027} {
			dump[blk*BlockBytes+2] ^= 0x20
		}
		return dump, Config{Workers: 1, RepairFlips: 2}
	}},
	{"ground_dump", func(t *testing.T) ([]byte, Config) {
		dump, groundDump, _, _ := buildGroundScenario(t, 2)
		return dump, Config{Workers: 1, GroundDump: groundDump}
	}},
	{"exhaustive_small", func(t *testing.T) ([]byte, Config) {
		dump := buildAttackDump(t, 256<<10, 64, workload.LightSystem,
			testMaster(604, 32), 512*BlockBytes)
		return dump, Config{Workers: 1, Exhaustive: true}
	}},
	{"aes128_variant", func(t *testing.T) ([]byte, Config) {
		dump := buildAttackDump(t, 512<<10, 65, workload.LightSystem,
			testMaster(605, 16), 1000*BlockBytes)
		decayBits(dump, 650, len(dump)*8/4000)
		return dump, Config{Workers: 1, Variant: aes.AES128, RepairFlips: 1}
	}},
}

// TestAttackPipelineParity is the tentpole oracle: the pooled, cached,
// memoized pipeline (Workers: 1 for deterministic ordering) must emit
// byte-identical results to the frozen seed pipeline on every scenario,
// including both repair paths and the exhaustive directory.
func TestAttackPipelineParity(t *testing.T) {
	if raceEnabled {
		t.Skip("serial differential oracle (Workers: 1 vs verbatim seed copies): nothing for the race detector, and the reference pipeline is too slow under it")
	}
	for _, sc := range attackParityScenarios {
		t.Run(sc.name, func(t *testing.T) {
			dump, cfg := sc.build(t)
			got, err := AttackContext(context.Background(), dump, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := refAttack(dump, cfg)

			if got.Stride != want.Stride {
				t.Errorf("Stride: got %d, want %d", got.Stride, want.Stride)
			}
			if got.Coverage != want.Coverage {
				t.Errorf("Coverage: got %v, want %v", got.Coverage, want.Coverage)
			}
			if got.BlocksScanned != want.BlocksScanned {
				t.Errorf("BlocksScanned: got %d, want %d", got.BlocksScanned, want.BlocksScanned)
			}
			if got.PairsTested != want.PairsTested {
				t.Errorf("PairsTested: got %d, want %d", got.PairsTested, want.PairsTested)
			}
			if !reflect.DeepEqual(got.Mine.Keys, want.Mine.Keys) {
				t.Errorf("Mine.Keys differ: got %d keys, want %d", len(got.Mine.Keys), len(want.Mine.Keys))
			}
			if len(got.Keys) != len(want.Keys) {
				t.Fatalf("Keys: got %d, want %d\n got  %+v\n want %+v",
					len(got.Keys), len(want.Keys), got.Keys, want.Keys)
			}
			for i := range want.Keys {
				// The refactored pipeline tags every native-hunt key with the
				// aesxts format; the frozen reference predates tagging. Assert
				// the tag, then compare the rest byte-for-byte.
				g := got.Keys[i]
				if g.Format != FormatAESXTS {
					t.Errorf("key %d format: got %q, want %q", i, g.Format, FormatAESXTS)
				}
				g.Format, g.Volume = "", ""
				if !reflect.DeepEqual(g, want.Keys[i]) {
					t.Errorf("key %d differs:\n got  %+v\n want %+v", i, g, want.Keys[i])
				}
			}
		})
	}
}
