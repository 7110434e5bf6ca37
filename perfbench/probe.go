package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// probe times a fixed computation made only of standard-library work of
// the kinds the engine spends its time on: reflection-driven JSON encoding
// and decoding, SHA-256, string-keyed map inserts and small allocations.
// Nothing the program does can change its code, so its duration tracks
// how fast the host is running this kind of work right now.
//
// A cache-resident sort-and-hash probe was tried first. When the host
// slowed exhaust-cold 1.86x, that probe slowed only 1.38x; this probe
// slowed 1.73x, and 1.64x against exhaust-cold's 1.76x in an earlier slow
// period.
type probe struct {
	rec probeRecord
}

type probeRecord struct {
	Key   string            `json:"key"`
	Vals  []int             `json:"vals"`
	Attrs map[string]string `json:"attrs"`
}

func newProbe() *probe {
	return &probe{rec: probeRecord{
		Key:   "k",
		Vals:  []int{1, 2, 3, 4, 5, 6, 7, 8},
		Attrs: map[string]string{"a": "x", "b": "y", "c": "z"},
	}}
}

var probeSink int

// probeRepeats: run keeps the fastest of a few back-to-back repetitions,
// so a GC cycle that happens to land in one does not count.
const probeRepeats = 3

// run returns the fastest repetition's duration.
func (p *probe) run() int64 {
	best := int64(math.MaxInt64)
	for r := 0; r < probeRepeats; r++ {
		start := time.Now()
		m := make(map[string]int)
		for i := 0; i < 200; i++ {
			b, _ := json.Marshal(p.rec)
			var q probeRecord
			_ = json.Unmarshal(b, &q)
			h := sha256.Sum256(b)
			m[strconv.Itoa(i)+string(h[:2])] = len(q.Vals)
			probeSink += int(h[0])
		}
		probeSink += len(m)
		if d := int64(time.Since(start)); d < best {
			best = d
		}
	}
	return best
}

// refProbeNs is the probe time that defines a reference-host second.
const refProbeNs = 1_000_000

// hostSpeed converts the time of the two probe runs around a sample into
// the factor that scales the sample's times to reference-host time: below
// 1 while the host runs slower than the reference.
func hostSpeed(probeNs int64) float64 {
	if probeNs <= 0 {
		return 1
	}
	return 2 * refProbeNs / float64(probeNs)
}
