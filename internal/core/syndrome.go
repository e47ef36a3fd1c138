package core

import (
	"math/bits"

	"coldboot/internal/aes"
)

// Syndrome-gated decay repair.
//
// The window flip searches (repairWindowScratch, repairWindowGroundScratch)
// pay one full-schedule verification per consistent flip set, a few
// hundred per failed candidate, and nearly every candidate that fails
// verification is a litmus hit on something that is not a decayed schedule
// at the hit's alignment: a real schedule anchored at the wrong index, or
// the seam between two adjacent tables. The AES key expansion is a code
// whose parity checks are the recurrence
//
//	w[i] = w[i-Nk] ⊕ step(w[i-1], i)    Nk ≤ i < ScheduleWords
//
// (step is the identity except at the nonlinear indices i ≡ 0 mod Nk and,
// for Nk = 8, i ≡ 4 mod Nk). Before a search, the hunt evaluates every
// check on the observed table at the hit's TableStart (the dump descrambled
// with the block's directory key, as refine sees it) and counts the checks
// whose residual exceeds DefaultAESTolerance, the tolerance the bound below
// is derived at, whatever Config.AESTolerance the litmus ran with. The bound
// sits between two populations:
//
//   - A table that is not a schedule at this alignment breaks every
//     nonlinear check. With the index frame shifted by s ≢ 0 (mod Nk), a
//     nonlinear check compares SubWord(RotWord(x)) ⊕ rcon or SubWord(x)
//     against x or against the other transform: a residual of about 16
//     uniform bits, within 6 bits with probability 2.7e-4. Words beyond the
//     table (zeroed or unrelated memory) break them as well. The floor is
//     the count of nonlinear checks: 10 for AES-128, 8 for AES-192, 13 for
//     AES-256.
//   - Decay on an aligned table breaks a linear check only when 7 of its 96
//     bits flipped, and a nonlinear one mostly when the S-box spreads a
//     flipped input bit of w[i-1] past the tolerance. At the edge of the
//     measured decay envelope (-25 °C for 2 s, 1.61% of bits flipped)
//     aligned tables broke at most 8, 6 and 8 checks for AES-128/192/256 in
//     10^5 draws each, below every floor
//     (TestRepairGateSeparatesDecayFromMisalignment).
//
// So the flip search runs only when the table breaks fewer checks than any
// misaligned table must. Both populations assume each block is descrambled
// with its own key. That holds when the directory lists exactly one key for
// the block; where it lists several (AllKeysDirectory, or a residue class
// with more than one mined key), observedScheduleWordsInto picks the key
// closest to the failed candidate's expansion, which can be the wrong one.
// Words in blocks with no directory key or with more than one are therefore
// unobserved, and checks touching them count as satisfied: a coverage hole
// or an ambiguous block can let a candidate through, never hold a decayed
// schedule back.
//
// The gate also skips one kind of search that can verify: a real schedule
// read at a start shifted by a multiple of Nk words, so that the table's
// edge falls inside the region. The shifted checks hold, the edge breaks
// at least the floor, and a flip search can still reach about 0.8 with a
// shift-family alias. Assembly drops such an alias for the overlapping
// true key (TestRepairGateSoundness requires every such case to be one);
// where the true key is not recovered, the alias was a false key.

// repairGateFloor returns the number of nonlinear expansion checks of v's
// schedule: the fewest checks a table misaligned by s ≢ 0 (mod Nk) breaks.
func repairGateFloor(v aes.Variant) int {
	nk := v.Nk()
	n := 0
	for i := nk; i < v.ScheduleWords(); i++ {
		if i%nk == 0 || (nk > 6 && i%nk == 4) {
			n++
		}
	}
	return n
}

// scheduleSyndrome counts the expansion checks the observed schedule words
// break by more than tolerance bits, skipping checks that touch a word
// marked in unobserved, and stops counting at limit.
func scheduleSyndrome(w []uint32, unobserved uint64, nk, tolerance, limit int) int {
	fails := 0
	for i := nk; i < len(w) && fails < limit; i++ {
		if unobserved&(1<<uint(i)|1<<uint(i-1)|1<<uint(i-nk)) != 0 {
			continue
		}
		if bits.OnesCount32(w[i]^w[i-nk]^scheduleStep(w[i-1], i, nk)) > tolerance {
			fails++
		}
	}
	return fails
}

// repairGateScratch reports whether the window flip search may run for a
// candidate whose expansion (reference) failed verification at tableStart:
// true when the observed table breaks fewer expansion checks than
// repairGateFloor at DefaultAESTolerance. tableStart must leave the whole
// schedule inside the dump. It clobbers rs.observed and rs.observedWords
// only.
func repairGateScratch(rs *repairScratch, dump []byte, keys KeyDirectory, reference []byte, tableStart int, v aes.Variant) bool {
	floor := repairGateFloor(v)
	observed := observedScheduleWordsInto(rs, dump, keys, reference, tableStart)
	var unobserved uint64
	for i := range observed {
		if len(keys((tableStart+4*i)/BlockBytes)) != 1 {
			unobserved |= 1 << uint(i)
		}
	}
	return scheduleSyndrome(observed, unobserved, v.Nk(), DefaultAESTolerance, floor) < floor
}
