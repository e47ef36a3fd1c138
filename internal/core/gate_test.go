package core_test

import (
	"context"
	"testing"

	"coldboot"
	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/core"
)

// TestRepairGateSoundness checks the syndrome gate against the repair it
// replaces. For every failed-verify litmus hit the hunt would reach on a
// decayed 1 MiB simulator capture and on the decay_repair1 and
// aes128_variant parity fixtures, if the gate rejects the hit, the
// unchanged exported RepairWindow (single flip, threshold 0.80) must not
// reach 0.80 — with one exception the gate is built to reject: a real
// schedule read at a start shifted by a multiple of Nk words, where most
// checks hold and the table's edge breaks many. Repair there can verify a
// shift-family alias at about 0.8, which assembly drops for the
// returned key it overlaps. The test requires every such hit to be that
// alias: its refined master is not returned, and a returned key with a
// higher score starts a nonzero multiple of 4*Nk bytes away and overlaps
// at least half the schedule.
func TestRepairGateSoundness(t *testing.T) {
	capture, _, err := coldboot.Capture(coldboot.Scenario{Seed: 1, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	decay, decayCfg := core.ParityFixture(t, "decay_repair1")
	aes128, aes128Cfg := core.ParityFixture(t, "aes128_variant")
	for _, tc := range []struct {
		name string
		dump []byte
		cfg  core.Config
	}{
		{"capture_1MiB_-50C_2s", capture, core.Config{RepairFlips: 1}},
		{"decay_repair1", decay, decayCfg},
		{"aes128_variant", aes128, aes128Cfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.AttackContext(context.Background(), tc.dump, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			v := tc.cfg.Variant
			if v == 0 {
				v = aes.AES256
			}
			failed, rejected, aliases := checkGateSoundness(t, tc.dump, v, res.Keys)
			t.Logf("%d failed-verify hits, %d rejected by the gate, %d of those repairable only as suppressed shift aliases",
				failed, rejected, aliases)
			if rejected == 0 {
				t.Fatal("the gate rejected no hit: the check is vacuous")
			}
		})
	}
}

// suppressedAlias reports whether a candidate with the given master, table
// start and score is a shift-family alias that assembly drops for one of
// the returned AES-schedule keys (whatever format they were tagged with
// after suppression).
func suppressedAlias(keys []core.FoundKey, master []byte, start int, score float64, v aes.Variant) bool {
	period := 4 * v.Nk()
	for _, k := range keys {
		if string(k.Master) == string(master) {
			return false
		}
	}
	for _, k := range keys {
		d := k.TableStart - start
		if d < 0 {
			d = -d
		}
		if k.Variant == v && k.Score > score && d != 0 && d%period == 0 && 2*d <= v.ScheduleBytes() {
			return true
		}
	}
	return false
}

// checkGateSoundness walks the hunt's (block, key, hit) space the way
// huntStage.Run does with default tolerances. It returns how many hits
// failed verification, how many of those the gate rejected, and how many
// rejected hits RepairWindow repairs into a suppressed shift alias; it
// fails t for any other rejected hit that RepairWindow repairs.
func checkGateSoundness(t *testing.T, dump []byte, v aes.Variant, keys []core.FoundKey) (failed, rejected, aliases int) {
	mine, err := core.MineKeys(dump, core.MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stride := mine.InferStride()
	if stride == 0 {
		t.Fatal("no stride inferred")
	}
	dir := core.ResidueDirectory(mine, stride)
	nBlocks := len(dump) / core.BlockBytes
	mined := make([]bool, nBlocks)
	for _, k := range mine.Keys {
		for _, p := range k.Positions {
			mined[p] = true
		}
	}
	descrambled := make([]byte, core.BlockBytes)
	for b := 0; b < nBlocks; b++ {
		stored := dump[b*core.BlockBytes : (b+1)*core.BlockBytes]
		if mined[b] || core.KeyLitmusDistance(stored) <= core.ZeroBlockSkipDistance {
			continue
		}
		for _, key := range dir(b) {
			bitutil.XORBlock64(descrambled, stored, key)
			for _, hit := range core.AESLitmus(descrambled, v, core.DefaultAESTolerance) {
				start := hit.TableStart(b)
				if core.WindowDegenerate(descrambled, hit, v.Nk()) || start < 0 || start+v.ScheduleBytes() > len(dump) {
					continue
				}
				master := core.MasterFromHit(descrambled, hit, v)
				if core.VerifySchedule(dump, dir, master, start, v) >= 0.80 {
					continue
				}
				failed++
				if core.RepairGate(dump, dir, descrambled, b, hit, v) {
					continue
				}
				rejected++
				repaired, score := core.RepairWindow(dump, dir, descrambled, b, hit, v, 1, 0.80)
				if score < 0.80 {
					continue
				}
				final, finalScore := core.RefineMaster(dump, dir, repaired, start, v)
				if !suppressedAlias(keys, final, start, finalScore, v) {
					t.Errorf("gate rejected block %d hit %+v (table start %d), but RepairWindow reaches %.4f",
						b, hit, start, score)
					continue
				}
				aliases++
			}
		}
	}
	return failed, rejected, aliases
}
