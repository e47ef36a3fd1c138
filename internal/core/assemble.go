package core

import (
	"encoding/binary"
	"math/bits"

	"coldboot/internal/aes"
)

// KeyDirectory returns the candidate scrambler keys for a given block index
// of the dump. The stride-based directory (from MineResult.KeysByResidue)
// returns the one or two keys mined for the block's address class; the
// exhaustive directory returns every mined key, which is the paper's
// literal step 2 ("descramble individual memory blocks ... with all keys").
//
// The returned slices are READ-ONLY and shared between calls (the same
// contract as Scrambler.KeyAt): the hunt queries the directory once per
// (block, key) pair and per verification chunk, so directories must not
// allocate per call.
type KeyDirectory func(blockIdx int) [][]byte

// AllKeysDirectory builds the exhaustive directory.
func AllKeysDirectory(mine *MineResult) KeyDirectory {
	keys := make([][]byte, len(mine.Keys))
	for i, k := range mine.Keys {
		keys[i] = k.Key
	}
	return func(int) [][]byte { return keys }
}

// ResidueDirectory builds the stride-based directory. The per-residue key
// tables are built once here — lookups return the shared slice for the
// block's address class (read-only, like every KeyDirectory).
func ResidueDirectory(mine *MineResult, stride int) KeyDirectory {
	// Two passes over the sightings: count each residue's key-table size,
	// carve the tables out of one shared backing slab, then fill. The stride
	// is typically thousands of residues with one key each, so per-residue
	// append would cost one allocation per residue; the slab costs four for
	// the whole directory.
	//
	// seen[r] marks the last key index that contributed to residue r, so a
	// key sighted at many positions of one class is listed once — the same
	// dedup KeysByResidue performs, preserving its key ordering.
	seen := make([]int, stride)
	counts := make([]int, stride)
	for i := range seen {
		seen[i] = -1
	}
	total := 0
	for ki, k := range mine.Keys {
		for _, p := range k.Positions {
			r := p % stride
			if seen[r] != ki {
				seen[r] = ki
				counts[r]++
				total++
			}
		}
	}
	slab := make([][]byte, total)
	byRes := make([][][]byte, stride)
	off := 0
	for r, n := range counts {
		byRes[r] = slab[off : off : off+n]
		off += n
		seen[r] = -1
	}
	for ki, k := range mine.Keys {
		for _, p := range k.Positions {
			r := p % stride
			if seen[r] != ki {
				seen[r] = ki
				byRes[r] = append(byRes[r], k.Key)
			}
		}
	}
	return func(blockIdx int) [][]byte {
		return byRes[blockIdx%stride]
	}
}

// VerifySchedule scores a candidate master key against the dump: the master
// is expanded and the resulting schedule is compared, block by block,
// against the descrambled dump contents at tableStart, taking the best
// (minimum-distance) candidate key for each covered block. The score is the
// fraction of schedule bits that match.
//
// A correct master scores near 1.0 (exactly 1.0 on an undecayed dump); an
// incorrect one scores ~0.5 (random agreement). Blocks with no mined key
// count as fully mismatched, so low mining coverage degrades the score
// honestly instead of silently passing.
//
//lint:ignore ctxthread bounded per-candidate scoring over one schedule-sized region, not a dump-scale scan; cancellation lives in the calling stage
func VerifySchedule(dump []byte, keys KeyDirectory, master []byte, tableStart int, v aes.Variant) float64 {
	var buf [aes.MaxScheduleBytes]byte
	return scheduleScore(dump, keys, aes.ExpandKeyBytesInto(buf[:0], master), tableStart)
}

// scheduleScore is the verification kernel: it scores an ALREADY-EXPANDED
// schedule against the dump. The hunt calls it with cached schedule bytes
// (ScheduleCache) or scratch-expanded candidates, so the per-candidate path
// performs no allocation.
func scheduleScore(dump []byte, keys KeyDirectory, schedule []byte, tableStart int) float64 {
	if tableStart < 0 || tableStart+len(schedule) > len(dump) {
		return 0
	}
	totalBits := len(schedule) * 8
	mismatched := 0
	pos := 0
	for pos < len(schedule) {
		addr := tableStart + pos
		blockIdx := addr / BlockBytes
		inOff := addr % BlockBytes
		chunk := BlockBytes - inOff
		if chunk > len(schedule)-pos {
			chunk = len(schedule) - pos
		}
		stored := dump[blockIdx*BlockBytes+inOff : blockIdx*BlockBytes+inOff+chunk]
		want := schedule[pos : pos+chunk]
		best := chunk * 8
		for _, key := range keys(blockIdx) {
			d := xorDistance(stored, key[inOff:inOff+chunk], want)
			if d < best {
				best = d
			}
		}
		mismatched += best
		pos += chunk
	}
	return 1 - float64(mismatched)/float64(totalBits)
}

// xorDistance returns hamming(stored ^ key, want), popcounting eight bytes
// per step with a byte tail for the unaligned chunk ends.
func xorDistance(stored, key, want []byte) int {
	d := 0
	i := 0
	for ; i+8 <= len(stored); i += 8 {
		d += bits.OnesCount64(binary.LittleEndian.Uint64(stored[i:]) ^
			binary.LittleEndian.Uint64(key[i:]) ^
			binary.LittleEndian.Uint64(want[i:]))
	}
	for ; i < len(stored); i++ {
		d += bits.OnesCount8(stored[i] ^ key[i] ^ want[i])
	}
	return d
}

// repairer bundles the state the flip-repair searches share: a mutable
// working copy of the descrambled block plus the scratch the candidate
// evaluations run on. Methods replace the seed's per-call closures so the
// per-flip evaluation performs no allocation.
type repairer struct {
	rs         *repairScratch
	dump       []byte
	keys       KeyDirectory
	hit        ScheduleHit
	nk         int
	v          aes.Variant
	tableStart int
	work       []byte // rs.work[:BlockBytes], the flip target
}

func newRepairer(rs *repairScratch, dump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant) repairer {
	return repairer{
		rs:         rs,
		dump:       dump,
		keys:       keys,
		hit:        hit,
		nk:         v.Nk(),
		v:          v,
		tableStart: hit.TableStart(blockIdx),
		work:       append(rs.work[:0], block...),
	}
}

// tryMaster derives the master implied by the current work window and
// scores its full schedule. The returned master aliases rs.master.
func (r *repairer) tryMaster() ([]byte, float64) {
	words := aes.BytesToWordsInto(r.rs.winWords[:0], r.work[4*r.hit.WordOffset:4*r.hit.WordOffset+4*r.nk])
	master := aes.RecoverMasterKeyInto(r.rs.master[:0], words, r.hit.ScheduleIndex, r.v)
	sched := aes.ExpandKeyBytesInto(r.rs.sched[:0], master)
	return master, scheduleScore(r.dump, r.keys, sched, r.tableStart)
}

// consistent rechecks the hit's own in-block prediction on the edited work
// block (the cheap pruner that gates full-schedule verification).
func (r *repairer) consistent() bool {
	words := aes.BytesToWordsInto(r.rs.blockWords[:0], r.work)
	_, ok := predictAndCompare(words, r.hit.WordOffset, r.hit.ScheduleIndex, r.nk,
		r.hit.VerifiedWords, DefaultAESTolerance)
	return ok
}

func (r *repairer) flip(bit int) { r.work[bit/8] ^= 1 << uint(bit%8) }

// RepairWindow attempts to fix bit decay inside a hit's schedule window by
// flipping up to maxFlips bits (1 or 2) and returning the repaired master
// with the best full-schedule verification score. This recovers anchors
// whose verification region was intact (so the hit was detected) but whose
// window words had decayed (so the derived master was garbage).
//
// Each flip candidate is first re-checked against the hit's own in-block
// prediction, and only candidates that keep it consistent pay for a
// full-schedule verification. A flip in a window bit the prediction never
// reads stays consistent, though, so a single-flip search over an AES-256
// window still verifies about 230 candidates. The hunt therefore calls it
// only for hits that pass the schedule-syndrome gate (syndrome.go), which
// skips the tables that break as many expansion checks as a misaligned
// table must; called directly, RepairWindow always searches.
//
// block is the descrambled 64-byte block containing the hit.
//
//lint:ignore ctxthread bounded per-hit repair (flip budget caps the work); cancellation lives in the calling stage
func RepairWindow(dump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant, maxFlips int, minScore float64) ([]byte, float64) {
	var rs repairScratch
	defer rs.wipe()
	m, s := repairWindowScratch(&rs, dump, keys, block, blockIdx, hit, v, maxFlips, minScore)
	return append([]byte{}, m...), s
}

// repairWindowScratch is RepairWindow on caller scratch. The returned
// master aliases rs.best and is valid until the scratch is reused.
func repairWindowScratch(rs *repairScratch, dump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant, maxFlips int, minScore float64) ([]byte, float64) {
	r := newRepairer(rs, dump, keys, block, blockIdx, hit, v)

	m, bestScore := r.tryMaster()
	bestMaster := append(rs.best[:0], m...)
	winLo := 4 * hit.WordOffset * 8 // window bit range within the block
	winHi := winLo + 4*r.nk*8
	if maxFlips >= 1 {
		for b1 := winLo; b1 < winHi; b1++ {
			r.flip(b1)
			if r.consistent() {
				if m, s := r.tryMaster(); s > bestScore {
					bestMaster, bestScore = append(rs.best[:0], m...), s
				}
			}
			if maxFlips >= 2 && bestScore < minScore {
				for b2 := b1 + 1; b2 < winHi; b2++ {
					r.flip(b2)
					if r.consistent() {
						if m, s := r.tryMaster(); s > bestScore {
							bestMaster, bestScore = append(rs.best[:0], m...), s
						}
					}
					r.flip(b2)
					if bestScore >= minScore {
						break
					}
				}
			}
			r.flip(b1)
			if bestScore >= minScore {
				break
			}
		}
	}
	return bestMaster, bestScore
}

// windowDegenerate reports whether a hit's window is trivial content that
// produces meaningless masters: few distinct words (zeroed or pattern
// memory), or nearly-all-zero / nearly-all-one bits (decayed zero blocks
// descrambled with their key leave a handful of stray bits that defeat an
// exact emptiness check). Real schedule words are high-entropy, so none of
// these conditions ever hold for a genuine hit.
func windowDegenerate(block []byte, hit ScheduleHit, nk int) bool {
	var w [BlockBytes / 4]uint32
	return windowDegenerateWords(aes.BytesToWordsInto(w[:0], block), hit, nk)
}

// windowDegenerateWords is windowDegenerate on a pre-converted word view
// (what the hunt workers hold).
func windowDegenerateWords(words []uint32, hit ScheduleHit, nk int) bool {
	win := words[hit.WordOffset : hit.WordOffset+nk]
	// Distinct-word count by pairwise compare: nk <= 8, so this beats any
	// set structure and allocates nothing.
	distinct := 0
	for i, w := range win {
		dup := false
		for k := 0; k < i; k++ {
			if win[k] == w {
				dup = true
				break
			}
		}
		if !dup {
			distinct++
		}
	}
	if distinct <= nk/2 {
		return true
	}
	weight := 0
	for _, w := range win {
		weight += bits.OnesCount32(w)
	}
	total := nk * 32
	return weight < total/8 || weight > total*7/8
}

// RefineMaster corrects residual bit errors in a recovered master key by
// exploiting the AES key schedule's redundancy. The expansion recurrence is
// linear except at the subword positions, so a flipped bit in most master
// words propagates UNCHANGED along its word chain (schedule indices
// i ≡ c mod Nk) without ever feeding a transform: the corrupted master
// still verifies at ~0.99 — convincingly, but wrongly. The residual between
// the candidate's expansion and the observed (descrambled) schedule then
// repeats the same flip pattern down the whole chain, so a per-chain
// bitwise majority vote over the residuals recovers the flip mask exactly;
// XORing it into the master word fixes the key. Iterated until no chain
// improves the verification score.
//
// This is the schedule-redundancy error correction that lets the attack
// tolerate decay even when no single anchor window survived intact.
//
//lint:ignore ctxthread bounded per-candidate consensus over one schedule-sized region; cancellation lives in the calling stage
func RefineMaster(dump []byte, keys KeyDirectory, master []byte, tableStart int, v aes.Variant) ([]byte, float64) {
	var rs repairScratch
	defer rs.wipe()
	m, s := refineMasterScratch(&rs, dump, keys, master, tableStart, v)
	return append([]byte{}, m...), s
}

// refineMasterScratch is RefineMaster on caller scratch. The returned
// master aliases rs.best and is valid until the scratch is reused; master
// may itself alias rs.best or rs.master from an earlier scratch call.
func refineMasterScratch(rs *repairScratch, dump []byte, keys KeyDirectory, master []byte, tableStart int, v aes.Variant) ([]byte, float64) {
	best := append(rs.best[:0], master...)
	bestScore := scheduleScore(dump, keys, aes.ExpandKeyBytesInto(rs.sched[:0], best), tableStart)
	if bestScore == 0 {
		return best, bestScore
	}
	nk := v.Nk()
	// Phase 1 — window consensus: the verified candidate tells us where the
	// schedule lies, so re-derive the master from EVERY Nk-word window of
	// the observed (descrambled) table and keep the best verifier. Sparse
	// decay almost surely leaves at least one window intact, and a clean
	// window yields the exact master.
	observed := observedScheduleWordsInto(rs, dump, keys, aes.ExpandKeyBytesInto(rs.ref[:0], best), tableStart)
	for s := 0; s+nk <= len(observed); s++ {
		cand := aes.RecoverMasterKeyInto(rs.master[:0], observed[s:s+nk], s, v)
		if sc := scheduleScore(dump, keys, aes.ExpandKeyBytesInto(rs.sched[:0], cand), tableStart); sc > bestScore {
			best, bestScore = append(rs.best[:0], cand...), sc
		}
	}
	// Phase 2 — chain-vote error correction for the no-clean-window case.
	for iter := 0; iter < 4; iter++ {
		sched := aes.ExpandKeyInto(rs.refWords[:0], best)
		observed := observedScheduleWordsInto(rs, dump, keys, aes.WordsToBytesInto(rs.ref[:0], sched), tableStart)
		improved := false
		for c := 0; c < nk; c++ {
			var votes [32]int
			count := 0
			for i := c; i < len(sched); i += nk {
				r := sched[i] ^ observed[i]
				for b := 0; b < 32; b++ {
					if r>>uint(b)&1 == 1 {
						votes[b]++
					}
				}
				count++
			}
			var fix uint32
			for b := 0; b < 32; b++ {
				if votes[b]*2 > count {
					fix |= 1 << uint(b)
				}
			}
			if fix == 0 {
				continue
			}
			cand := append(rs.master[:0], best...)
			w := aes.BytesToWordsInto(rs.winWords[:0], cand)
			w[c] ^= fix
			cand = aes.WordsToBytesInto(rs.master[:0], w)
			if s := scheduleScore(dump, keys, aes.ExpandKeyBytesInto(rs.sched[:0], cand), tableStart); s > bestScore {
				best, bestScore = append(rs.best[:0], cand...), s
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best, bestScore
}

// observedScheduleWordsInto descrambles the dump region holding the
// candidate schedule, choosing for each block the directory key that best
// matches the reference expansion (the same minimum-distance choice
// scheduleScore makes), and returns the observed schedule words on
// rs.observedWords.
func observedScheduleWordsInto(rs *repairScratch, dump []byte, keys KeyDirectory, reference []byte, tableStart int) []uint32 {
	out := rs.observed[:len(reference)]
	pos := 0
	for pos < len(reference) {
		addr := tableStart + pos
		blockIdx := addr / BlockBytes
		inOff := addr % BlockBytes
		chunk := BlockBytes - inOff
		if chunk > len(reference)-pos {
			chunk = len(reference) - pos
		}
		stored := dump[blockIdx*BlockBytes+inOff : blockIdx*BlockBytes+inOff+chunk]
		want := reference[pos : pos+chunk]
		var bestKey []byte
		bestD := 1 << 30
		for _, key := range keys(blockIdx) {
			if d := xorDistance(stored, key[inOff:inOff+chunk], want); d < bestD {
				bestD, bestKey = d, key
			}
		}
		for i := 0; i < chunk; i++ {
			if bestKey != nil {
				out[pos+i] = stored[i] ^ bestKey[inOff+i]
			} else {
				out[pos+i] = want[i] // uncovered block: neutral (no votes)
			}
		}
		pos += chunk
	}
	return aes.BytesToWordsInto(rs.observedWords[:0], out)
}

// ExtractRemnant recovers the scrambler key of an uncovered block adjacent
// to a verified schedule: once the master is known, the expected plaintext
// at the block is known, so key = stored ^ expected. This is the inverse of
// mining and corresponds to the paper's boundary-block step — pulling the
// remaining key bytes out of the blocks at the edges of the located table.
func ExtractRemnant(dump []byte, master []byte, tableStart int, blockIdx int, v aes.Variant) []byte {
	schedule := aes.ExpandKeyBytes(master)
	blockStart := blockIdx * BlockBytes
	key := make([]byte, BlockBytes)
	known := false
	for i := 0; i < BlockBytes; i++ {
		p := blockStart + i - tableStart
		if p >= 0 && p < len(schedule) {
			key[i] = dump[blockStart+i] ^ schedule[p]
			known = true
		}
	}
	if !known {
		return nil
	}
	return key
}
