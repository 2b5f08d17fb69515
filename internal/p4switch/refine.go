package p4switch

import (
	"slices"

	"smartwatch/internal/lpmap"
	"smartwatch/internal/packet"
)

// Tracker collects the distinct candidate keys each query saw during an
// interval, the control-plane side channel EndInterval needs to attribute
// fired register slots to keys. Real deployments learn candidates from
// mirrored samples; the simulator observes them exactly, bounded by
// maxKeys per query to stay honest about control-plane memory.
type Tracker struct {
	maxKeys int
	queries []Query
	// seen[i] is queries[i]'s key set: the per-packet path indexes by
	// position, only Candidates deals in names.
	seen []lpmap.Map[packet.Addr, struct{}]
}

// NewTracker builds a tracker for the installed query set.
func NewTracker(queries []Query, maxKeys int) *Tracker {
	if maxKeys <= 0 {
		maxKeys = 1 << 20
	}
	return &Tracker{maxKeys: maxKeys, queries: queries, seen: make([]lpmap.Map[packet.Addr, struct{}], len(queries))}
}

// Observe records the packet's masked key for every matching query.
func (t *Tracker) Observe(p *packet.Packet) {
	for i := range t.queries {
		q := &t.queries[i]
		if !q.Filter.Match(p) || q.amount(p) == 0 {
			continue
		}
		t.note(i, q.key(p))
	}
}

// note records key k for query i — Observe's insert, for a caller that has
// already evaluated the query on the packet.
func (t *Tracker) note(i int, k packet.Addr) {
	if s := &t.seen[i]; s.Len() < t.maxKeys {
		s.Put(addrHash(k), k)
	}
}

// alignedWith reports whether qs — a switch's installed set — is this
// tracker's query set position by position, so that query i counting in
// the switch's register loop is query i counting in Observe.
func (t *Tracker) alignedWith(qs []Query) bool { return slices.Equal(qs, t.queries) }

// Candidates returns the per-query key sets, each in address order, and
// resets them for the next interval.
func (t *Tracker) Candidates() map[string][]packet.Addr {
	out := make(map[string][]packet.Addr, len(t.seen))
	for i := range t.seen {
		name := t.queries[i].Name
		out[name] = append(out[name], members(&t.seen[i])...)
		t.seen[i].Reset(0)
	}
	for _, keys := range out {
		slices.Sort(keys)
	}
	return out
}

// Refiner implements Sonata-style iterative refinement for one logical
// query: intervals start at a coarse prefix; keys that fire zoom to the
// next granularity in the following interval, reusing the same switch
// memory. Only traffic inside fired parent prefixes is examined at finer
// levels — the "narrow window" that makes standalone Sonata miss attacks
// which expire before the zoom reaches them (Table 4). SmartWatch instead
// steers the fired coarse subset to the sNIC immediately.
type Refiner struct {
	base    Query
	levels  []int
	level   int
	parents map[packet.Addr]bool // fired prefixes at the previous level
}

// NewRefiner builds a refiner walking the given prefix levels (e.g.
// 8, 16, 32). levels must be strictly increasing.
func NewRefiner(base Query, levels []int) *Refiner {
	if len(levels) == 0 {
		panic("p4switch: refiner needs at least one level")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			panic("p4switch: refiner levels must increase")
		}
	}
	return &Refiner{base: base, levels: levels}
}

// CurrentQuery returns the query to install for the coming interval.
func (r *Refiner) CurrentQuery() Query {
	q := r.base
	q.PrefixBits = r.levels[r.level]
	return q
}

// Advance consumes the interval's fired keys. Keys outside the previously
// fired parent prefixes are discarded (Sonata only examines the zoomed
// window). At the final level the surviving keys are detections; the
// refiner then restarts at the coarsest level.
func (r *Refiner) Advance(fired []FiredKey) (detections []FiredKey) {
	var kept []FiredKey
	for _, f := range fired {
		if f.Query != r.base.Name {
			continue
		}
		if r.level > 0 {
			parent := f.Key.Prefix(r.levels[r.level-1])
			if !r.parents[parent] {
				continue
			}
		}
		kept = append(kept, f)
	}
	if r.level == len(r.levels)-1 {
		r.level = 0
		r.parents = nil
		return kept
	}
	if len(kept) == 0 {
		// Nothing to zoom into: restart.
		r.level = 0
		r.parents = nil
		return nil
	}
	r.parents = map[packet.Addr]bool{}
	for _, f := range kept {
		r.parents[f.Key] = true
	}
	r.level++
	return nil
}

// Level returns the refiner's current prefix level.
func (r *Refiner) Level() int { return r.levels[r.level] }
