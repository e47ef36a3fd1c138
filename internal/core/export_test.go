package core

import (
	"testing"

	"coldboot/internal/aes"
)

// Test-only access for the external repair-gate soundness test, which
// needs the simulator (coldboot.Capture) and so cannot live in package
// core.

// RepairGate reports whether the hunt's syndrome gate lets the window flip
// search run for hit, judged exactly as huntStage.Run judges it: on the
// expansion of the master the hit's window implies. The hit's table must
// lie inside the dump.
func RepairGate(dump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant) bool {
	var rs repairScratch
	defer rs.wipe()
	sched := aes.ExpandKeyBytes(MasterFromHit(block, hit, v))
	return repairGateScratch(&rs, dump, keys, sched, hit.TableStart(blockIdx), v)
}

// WindowDegenerate is the hunt's degenerate-window filter.
var WindowDegenerate = windowDegenerate

// ZeroBlockSkipDistance is the hunt's decayed-zero-block threshold.
const ZeroBlockSkipDistance = zeroBlockSkipDistance

// ParityFixture builds the named TestAttackPipelineParity scenario.
func ParityFixture(t *testing.T, name string) ([]byte, Config) {
	for _, sc := range attackParityScenarios {
		if sc.name == name {
			return sc.build(t)
		}
	}
	t.Fatalf("no parity scenario %q", name)
	return nil, Config{}
}
