package core

import (
	"encoding/json"
	"testing"

	"coldboot/internal/aes"
)

// Fuzz targets: the attack parses adversarial memory dumps, so nothing in
// the hot path may panic on arbitrary bytes.

func FuzzKeyLitmus(f *testing.F) {
	f.Add(make([]byte, 64))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, block []byte) {
		if len(block) != 64 {
			return
		}
		d := KeyLitmusDistance(block)
		if d < 0 || d > 256 {
			t.Fatalf("litmus distance %d out of range", d)
		}
	})
}

func FuzzAESLitmus(f *testing.F) {
	f.Add(make([]byte, 64), uint8(0))
	f.Fuzz(func(t *testing.T, block []byte, variant uint8) {
		if len(block) != 64 {
			return
		}
		v := []aes.Variant{aes.AES128, aes.AES192, aes.AES256}[int(variant)%3]
		for _, h := range AESLitmus(block, v, DefaultAESTolerance) {
			if h.WordOffset < 0 || h.WordOffset > 15 {
				t.Fatalf("hit offset %d out of range", h.WordOffset)
			}
			// Master derivation must not panic either.
			if m := MasterFromHit(block, h, v); len(m) != v.KeyBytes() {
				t.Fatalf("master length %d", len(m))
			}
		}
	})
}

func FuzzMineKeys(f *testing.F) {
	f.Add(make([]byte, 256))
	f.Fuzz(func(t *testing.T, dump []byte) {
		dump = dump[:len(dump)&^63]
		if len(dump) == 0 {
			return
		}
		res, err := MineKeys(dump, MineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range res.Keys {
			if len(k.Key) != 64 || k.Count < 1 {
				t.Fatal("malformed mined key")
			}
		}
	})
}

// wireTestPlan is a minimal sound wire plan: one mined key sighted four
// blocks apart, so its pool implies stride 4.
func wireTestPlan() *WirePlan {
	return &WirePlan{
		Variant:     aes.AES128,
		Formats:     []string{"aesxts"},
		Stride:      4,
		TotalBlocks: 16,
		Overlap:     1,
		Mine: &MineResult{
			Keys:          []MinedKey{{Key: make([]byte, BlockBytes), Count: 2, Positions: []int{1, 5}}},
			BlocksScanned: 16,
			BlocksPassed:  2,
		},
	}
}

// TestPlanFromWireChecks: a sound wire plan builds; each way a corrupt one
// could break the worker's scan or allocation is refused.
func TestPlanFromWireChecks(t *testing.T) {
	p, err := PlanFromWire(wireTestPlan(), nil)
	if err != nil {
		t.Fatalf("sound wire plan refused: %v", err)
	}
	p.Close()
	for name, corrupt := range map[string]func(*WirePlan){
		"no mine pool":       func(w *WirePlan) { w.Mine = nil },
		"unknown variant":    func(w *WirePlan) { w.Variant = 7 },
		"negative overlap":   func(w *WirePlan) { w.Overlap = -1 },
		"short mined key":    func(w *WirePlan) { w.Mine.Keys[0].Key = w.Mine.Keys[0].Key[:8] },
		"negative sighting":  func(w *WirePlan) { w.Mine.Keys[0].Positions[0] = -3 },
		"sighting past dump": func(w *WirePlan) { w.Mine.Keys[0].Positions[1] = 16 },
		"stride off pool":    func(w *WirePlan) { w.Stride = 8 },
		"stride too wide": func(w *WirePlan) {
			w.TotalBlocks = 2*maxWireStride + 1
			w.Mine.Keys[0].Positions = []int{0, 2 * maxWireStride}
			w.Stride = 2 * maxWireStride
		},
	} {
		w := wireTestPlan()
		corrupt(w)
		if p, err := PlanFromWire(w, nil); err == nil {
			p.Close()
			t.Errorf("%s: corrupt wire plan accepted", name)
		}
	}
}

// FuzzPlanFromWire: a worker rebuilds its plan from JSON the coordinator
// sent, so a hostile or corrupt wire plan must come back as an error —
// never a panic or an outsized allocation — and a plan that does come
// back must leave no schedule cache behind once closed.
func FuzzPlanFromWire(f *testing.F) {
	valid, err := json.Marshal(wireTestPlan())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"total_blocks":8,"mine":{"Keys":null}}`))
	f.Add([]byte(`{"stride":-3,"total_blocks":8,"mine":{"Keys":[{"Key":null,"Count":1,"Positions":[-1]}]}}`))
	f.Add([]byte(`{"variant":7,"formats":["nope"],"mine":{}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var w WirePlan
		if json.Unmarshal(raw, &w) != nil {
			return
		}
		p, err := PlanFromWire(&w, nil)
		if err != nil {
			if p != nil {
				t.Fatal("PlanFromWire returned a plan with its error")
			}
			return
		}
		cache := p.attackCfg.ScheduleCache
		p.Close()
		if cache.Len() != 0 {
			t.Fatalf("closed plan left %d cached schedules", cache.Len())
		}
	})
}
