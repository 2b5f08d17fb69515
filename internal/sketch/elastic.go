package sketch

import "smartwatch/internal/packet"

// Elastic implements the Elastic Sketch (Yang et al., SIGCOMM '18): a
// "heavy part" hash table with an Ostracism vote mechanism that keeps
// elephants exact, backed by a "light part" counter array absorbing mice
// and evicted elephants. Updates touch one heavy bucket and at most one
// light counter, giving it far better per-packet cost than Count-Min —
// but small flows pushed to the light part lose accuracy, the effect
// behind its flow-size-distribution error in Fig. 10c.
type Elastic struct {
	heavy   []elasticBucket
	light   []uint32
	lambda  uint64 // eviction vote threshold factor (paper uses 8)
	profile OpProfile
}

type elasticBucket struct {
	key      packet.FlowKey
	positive uint64 // count for the resident key
	negative uint64 // votes against the resident key
	occupied bool
	ejected  bool // resident key had an evicted predecessor (count is lower bound)
}

// NewElastic returns a sketch with heavyBuckets exact slots and lightBytes
// of light-part counters (1 byte each, saturating, as in the paper).
func NewElastic(heavyBuckets, lightBytes int) *Elastic {
	if heavyBuckets <= 0 || lightBytes <= 0 {
		panic("sketch: Elastic dimensions must be positive")
	}
	return &Elastic{
		heavy:  make([]elasticBucket, heavyBuckets),
		light:  make([]uint32, lightBytes),
		lambda: 8,
	}
}

func (e *Elastic) heavyIdx(k packet.FlowKey) uint64 { return k.Hash() % uint64(len(e.heavy)) }
func (e *Elastic) lightIdx(k packet.FlowKey) uint64 {
	return k.HashSeed(0x5bf03635) % uint64(len(e.light))
}

func (e *Elastic) lightAdd(k packet.FlowKey, n uint64) {
	idx := e.lightIdx(k)
	e.profile.Hashes++
	e.profile.MemReads++
	e.profile.MemWrites++
	v := uint64(e.light[idx]) + n
	if v > 0xffffffff {
		v = 0xffffffff
	}
	e.light[idx] = uint32(v)
}

// Update implements the Ostracism insertion of the Elastic heavy part.
func (e *Elastic) Update(k packet.FlowKey, n uint64) {
	e.profile.Updates++
	b := &e.heavy[e.heavyIdx(k)]
	e.profile.Hashes++
	e.profile.MemReads++
	switch {
	case !b.occupied:
		*b = elasticBucket{key: k, positive: n, occupied: true}
		e.profile.MemWrites++
	case b.key == k:
		b.positive += n
		e.profile.MemWrites++
	default:
		b.negative += n
		e.profile.MemWrites++
		if b.negative >= e.lambda*b.positive {
			// Evict the resident elephant candidate to the light part and
			// install the challenger.
			e.lightAdd(b.key, b.positive)
			*b = elasticBucket{key: k, positive: n, occupied: true, ejected: true}
			e.profile.MemWrites++
		} else {
			e.lightAdd(k, n)
		}
	}
}

// Estimate combines the heavy and light parts.
func (e *Elastic) Estimate(k packet.FlowKey) uint64 {
	b := &e.heavy[e.heavyIdx(k)]
	var est uint64
	if b.occupied && b.key == k {
		est = b.positive
		if !b.ejected {
			return est
		}
	}
	return est + uint64(e.light[e.lightIdx(k)])
}

// Ops returns the cumulative operation profile.
func (e *Elastic) Ops() OpProfile { return e.profile }
