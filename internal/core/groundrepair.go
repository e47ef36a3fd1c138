package core

import (
	"coldboot/internal/aes"
)

// Ground-state-aware decay repair (after Halderman et al.'s observation
// that DRAM decay is asymmetric, and the paper's §III-A profiling
// technique).
//
// A decayed bit always flips TOWARD its cell's ground state. The attacker
// can profile ground states with the dump machine itself: take the attack
// dump D = raw ⊕ K2, let the DIMM decay fully, and dump again WITHOUT
// rebooting: G = ground ⊕ K2. The keystream cancels in the comparison —
// a raw bit can have decayed only where D and G agree — so the repair
// search space shrinks to the "suspect" positions, typically half the
// window, which makes three-flip correction tractable where blind
// enumeration is not.

// SuspectMask returns, for the 64-byte block at blockIdx, a bitmask (one
// bit per data bit, LSB-first per byte) of positions where decay COULD have
// occurred: dump and groundDump agree there.
func SuspectMask(dump, groundDump []byte, blockIdx int) [BlockBytes]byte {
	var mask [BlockBytes]byte
	off := blockIdx * BlockBytes
	for i := 0; i < BlockBytes; i++ {
		// A bit is suspect where the dump already equals the ground read:
		// XOR gives 0 there, so invert.
		mask[i] = ^(dump[off+i] ^ groundDump[off+i])
	}
	return mask
}

// RepairWindowGround is RepairWindow restricted to ground-state suspect
// positions, which affords a deeper search (up to maxFlips = 3) under a
// verification budget: flips in positions that do not feed the in-block
// prediction stay "consistent", so every candidate costs a full-schedule
// verification — the budget bounds that. block is the descrambled 64-byte
// block containing the hit; dump and groundDump are the full captures the
// suspects are derived from. Like RepairWindow, the hunt calls it only for
// hits that pass the schedule-syndrome gate (syndrome.go).
//
//lint:ignore ctxthread bounded per-hit repair (explicit verifyBudget caps the work); cancellation lives in the calling stage
func RepairWindowGround(dump, groundDump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant, maxFlips int, minScore float64) ([]byte, float64) {
	var rs repairScratch
	defer rs.wipe()
	m, s := repairWindowGroundScratch(&rs, dump, groundDump, keys, block, blockIdx, hit, v, maxFlips, minScore)
	return append([]byte{}, m...), s
}

// repairWindowGroundScratch is RepairWindowGround on caller scratch. The
// returned master aliases rs.best and is valid until the scratch is reused.
func repairWindowGroundScratch(rs *repairScratch, dump, groundDump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant, maxFlips int, minScore float64) ([]byte, float64) {
	const verifyBudget = 1500
	r := newRepairer(rs, dump, keys, block, blockIdx, hit, v)
	mask := SuspectMask(dump, groundDump, blockIdx)

	// Collect suspect bit positions inside the window (reusing the scratch
	// slice across hits).
	winLo := 4 * hit.WordOffset * 8
	winHi := winLo + 4*r.nk*8
	suspects := rs.suspects[:0]
	for b := winLo; b < winHi; b++ {
		if mask[b/8]&(1<<uint(b%8)) != 0 {
			suspects = append(suspects, b)
		}
	}
	rs.suspects = suspects

	m, bestScore := r.tryMaster()
	bestMaster := append(rs.best[:0], m...)
	if bestScore >= minScore || maxFlips < 1 {
		return bestMaster, bestScore
	}
	budget := verifyBudget
	// Depth-first enumeration of up to maxFlips suspect flips with the
	// in-block prediction as a pruner and the verification budget as the
	// hard cost bound.
	var search func(startIdx, remaining int)
	search = func(startIdx, remaining int) {
		if bestScore >= minScore || budget <= 0 {
			return
		}
		for i := startIdx; i < len(suspects); i++ {
			r.flip(suspects[i])
			if r.consistent() {
				budget--
				if m, s := r.tryMaster(); s > bestScore {
					bestMaster, bestScore = append(rs.best[:0], m...), s
					if bestScore >= minScore {
						r.flip(suspects[i])
						return
					}
				}
			}
			if remaining > 1 {
				search(i+1, remaining-1)
			}
			r.flip(suspects[i])
			if bestScore >= minScore || budget <= 0 {
				return
			}
		}
	}
	for depth := 1; depth <= maxFlips && bestScore < minScore && budget > 0; depth++ {
		search(0, depth)
	}
	return bestMaster, bestScore
}
