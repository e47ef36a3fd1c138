package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"coldboot"
	"coldboot/internal/dumpfile"
	"coldboot/internal/secret"
)

// capturedDump is one simulated acquisition plus its ground truth.
type capturedDump struct {
	seed int64
	// image is the raw dump; set-up releases it once the op no longer
	// needs it, and size keeps its length.
	image []byte
	size  int64
	// truth holds the secret.Fingerprint of each planted XTS master (two
	// AES-256 keys). Results are checked by fingerprint, so no key bytes
	// are kept or compared outside the program.
	truth []string
	// container is the dumpfile encoding of image, and path where it was
	// written, when the workload needs them.
	container []byte
	path      string
}

// scenarioSeeds maps the benchmark seed onto n simulator seeds. Seed s
// takes the contiguous block s*n+1 .. s*n+n, so the blocks of different
// seeds never overlap and seed 0 starts at simulator seed 1.
func scenarioSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*int64(n) + int64(i) + 1
	}
	return out
}

// scenario is the simulator set-up for one acquisition kind.
func scenario(seed int64, reboot bool, memBytes int) coldboot.Scenario {
	// Zero fields take the coldboot defaults: i5-6600K (Skylake DDR4),
	// one channel, −50 °C, a 2 s DIMM transfer.
	return coldboot.Scenario{Seed: seed, SameMachineReboot: reboot, MemoryBytes: memBytes}
}

// capture runs coldboot.Capture for one simulator seed. The planted
// masters leave it only as fingerprints.
func capture(seed int64, reboot bool, memBytes int) (*capturedDump, error) {
	img, out, err := coldboot.Capture(scenario(seed, reboot, memBytes))
	if err != nil {
		return nil, fmt.Errorf("capturing seed %d: %s", seed, err.Error())
	}
	if len(out.TrueMasters) == 0 || len(out.TrueMasters)%32 != 0 {
		return nil, fmt.Errorf("seed %d: no whole ground-truth masters", seed)
	}
	return newCapturedDump(seed, img, fingerprints(splitMasters(out.TrueMasters))), nil
}

// newCapturedDump wraps a dump image. Taking the image as a parameter
// named for a dump tells the keyflow analysis that it is attacker input:
// the image comes back from coldboot.Capture alongside the planted keys,
// but it is the scrambled memory the attack reads, not key material.
func newCapturedDump(seed int64, img []byte, truth []string) *capturedDump {
	return &capturedDump{seed: seed, image: img, size: int64(len(img)), truth: truth}
}

// splitMasters cuts the concatenated XTS key into its 32-byte masters.
func splitMasters(keys []byte) [][]byte {
	var out [][]byte
	for off := 0; off+32 <= len(keys); off += 32 {
		out = append(out, keys[off:off+32])
	}
	return out
}

// fingerprints maps keys to their secret.Fingerprint, the only form in
// which the benchmark keeps or compares them.
func fingerprints(keys [][]byte) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = secret.Fingerprint(k)
	}
	return out
}

// containerMeta describes a capture the way cmd/coldboot -capture does.
func containerMeta(reboot bool) dumpfile.Metadata {
	m := dumpfile.Metadata{CPU: "i5-6600K", Channels: 1, ScramblerOn: true, Notes: "perfbench"}
	if !reboot {
		m.FreezeTempC = -50
		m.TransferSeconds = 2
	}
	return m
}

// encodeContainer fills d.container with the dumpfile encoding of d.image.
func encodeContainer(d *capturedDump, meta dumpfile.Metadata) error {
	var buf bytes.Buffer
	if err := dumpfile.Write(&buf, meta, d.image); err != nil {
		return err
	}
	d.container = buf.Bytes()
	return nil
}

// writeContainer writes d's container under dir and records the path.
func writeContainer(d *capturedDump, dir string) error {
	d.path = filepath.Join(dir, fmt.Sprintf("dump-%d.cbd", d.seed))
	return os.WriteFile(d.path, d.container, 0o600)
}

// score is the ground-truth tally of one or more ops.
type score struct {
	planted   int // masters planted in the analysed dumps
	recovered int // planted masters among the returned keys
	returned  int // distinct keys returned
}

func (s *score) add(o score) {
	s.planted += o.planted
	s.recovered += o.recovered
	s.returned += o.returned
}

// scoreKeys checks returned keys against the planted masters, both as
// fingerprints. Duplicates count once; a key that matches no planted
// master — a corrupted master included — is a miss for recall and a false
// key for precision.
func scoreKeys(truth, keys []string) score {
	distinct := make(map[string]bool, len(keys))
	for _, k := range keys {
		distinct[k] = true
	}
	s := score{planted: len(truth), returned: len(distinct)}
	for _, t := range truth {
		if distinct[t] {
			s.recovered++
		}
	}
	return s
}

// keySignature is an order-independent digest of a key set, used to check
// that every analysis of the same dump returns the same keys.
func keySignature(keys []string) string {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}
