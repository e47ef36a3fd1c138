package core

import (
	"math"
	"math/rand"
	"testing"

	"coldboot/internal/aes"
)

// envelopeFlipRate is the bit-flip rate at the edge of the measured decay
// envelope: -25 °C for 2 s, where EXPERIMENTS.md records the attack failing
// because no anchor window survives.
const envelopeFlipRate = 0.0161

// TestRepairGateFloor pins the nonlinear-check counts the gate's bound is
// derived from.
func TestRepairGateFloor(t *testing.T) {
	for v, want := range map[aes.Variant]int{aes.AES128: 10, aes.AES192: 8, aes.AES256: 13} {
		if got := repairGateFloor(v); got != want {
			t.Errorf("%s: floor %d, want %d", v, got, want)
		}
	}
}

// TestRepairGateSeparatesDecayFromMisalignment is the gate's derivation as
// a check: aligned schedules decayed at the envelope's flip rate stay below
// the floor in every one of 10^5 draws per variant, and every misaligned
// reading of a clean schedule (shifted by s ≢ 0 mod Nk, surrounded by
// random or zeroed memory) reaches it.
func TestRepairGateSeparatesDecayFromMisalignment(t *testing.T) {
	draws := 100000
	if testing.Short() {
		draws = 10000
	}
	rng := rand.New(rand.NewSource(1))
	logKeep := math.Log(1 - envelopeFlipRate)
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		nk, total := v.Nk(), v.ScheduleWords()
		floor := repairGateFloor(v)
		master := make([]byte, v.KeyBytes())
		worst := 0
		for n := 0; n < draws; n++ {
			rng.Read(master)
			w := aes.ExpandKey(master)
			// Flip each bit independently at the envelope rate, sampling the
			// gaps between flips geometrically.
			for bit := int(math.Log(1-rng.Float64()) / logKeep); bit < 32*total; bit += 1 + int(math.Log(1-rng.Float64())/logKeep) {
				w[bit/32] ^= 1 << uint(bit%32)
			}
			if f := scheduleSyndrome(w, 0, nk, DefaultAESTolerance, total); f > worst {
				worst = f
			}
		}
		if worst >= floor {
			t.Errorf("%s: a decayed aligned schedule broke %d checks, floor %d", v, worst, floor)
		}

		best := total
		mem := make([]uint32, 3*total)
		for n := 0; n < 200; n++ {
			rng.Read(master)
			w := aes.ExpandKey(master)
			for i := range mem {
				mem[i] = 0
				if n%2 == 0 {
					mem[i] = rng.Uint32()
				}
			}
			copy(mem[total:], w)
			for s := 1 - total; s < total; s++ {
				if s%nk == 0 {
					continue
				}
				if f := scheduleSyndrome(mem[total+s:2*total+s], 0, nk, DefaultAESTolerance, total); f < best {
					best = f
				}
			}
		}
		if best < floor {
			t.Errorf("%s: a misaligned table broke only %d checks, floor %d", v, best, floor)
		}
		t.Logf("%s: floor %d, decayed aligned worst %d, misaligned best %d", v, floor, worst, best)
	}
}

// TestScheduleSyndromeSkipsUnobservedWords: checks touching an unobserved
// word count as satisfied, so a coverage hole can only lower the count.
func TestScheduleSyndromeSkipsUnobservedWords(t *testing.T) {
	v := aes.AES256
	w := aes.ExpandKey(testMaster(7, 32))
	if f := scheduleSyndrome(w, 0, v.Nk(), DefaultAESTolerance, 64); f != 0 {
		t.Fatalf("clean schedule broke %d checks", f)
	}
	w[20] ^= 0xFFFF0000 // 16-bit error: breaks checks 20, 21 and 28
	if f := scheduleSyndrome(w, 0, v.Nk(), DefaultAESTolerance, 64); f != 3 {
		t.Fatalf("corrupted word broke %d checks, want 3", f)
	}
	if f := scheduleSyndrome(w, 1<<20, v.Nk(), DefaultAESTolerance, 64); f != 0 {
		t.Fatalf("unobserved corrupted word still broke %d checks", f)
	}
	if f := scheduleSyndrome(w, 0, v.Nk(), DefaultAESTolerance, 2); f != 2 {
		t.Fatalf("limit 2 counted %d", f)
	}
}

// TestRepairGateIgnoresAmbiguousBlocks: the gate judges a block only when
// the directory lists exactly one key for it. A misaligned table it rejects
// under a one-key directory passes once every block lists two keys, since
// the key observedScheduleWordsInto would pick is no longer forced.
func TestRepairGateIgnoresAmbiguousBlocks(t *testing.T) {
	v := aes.AES256
	rng := rand.New(rand.NewSource(3))
	plain := make([]byte, 8*BlockBytes)
	rng.Read(plain)
	sched := aes.ExpandKeyBytes(testMaster(11, 32))
	copy(plain[BlockBytes:], sched)
	k1, k2 := make([]byte, BlockBytes), make([]byte, BlockBytes)
	rng.Read(k1)
	rng.Read(k2)
	dump := make([]byte, len(plain))
	for b := 0; b < len(dump); b += BlockBytes {
		for i := 0; i < BlockBytes; i++ {
			dump[b+i] = plain[b+i] ^ k1[i]
		}
	}
	oneKey := func(int) [][]byte { return [][]byte{k1} }
	twoKeys := func(int) [][]byte { return [][]byte{k1, k2} }
	noKey := func(int) [][]byte { return nil }

	var rs repairScratch
	defer rs.wipe()
	if !repairGateScratch(&rs, dump, oneKey, sched, BlockBytes, v) {
		t.Error("aligned schedule under a one-key directory was gated off")
	}
	if repairGateScratch(&rs, dump, oneKey, sched, BlockBytes+4, v) {
		t.Error("table misaligned by one word under a one-key directory passed the gate")
	}
	if !repairGateScratch(&rs, dump, twoKeys, sched, BlockBytes+4, v) {
		t.Error("misaligned table in two-key blocks was gated off")
	}
	if !repairGateScratch(&rs, dump, noKey, sched, BlockBytes+4, v) {
		t.Error("misaligned table in key-less blocks was gated off")
	}
}
