package experiments

import (
	"fmt"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/trace"
)

// The replacement-policy study (DESIGN.md §11.3): the built-in policies
// of internal/flowcache evaluated head-to-head on the CAIDA-year presets,
// with the table deliberately undersized against each preset's live-flow
// population (DefaultConfig(8) = 3,072 entries vs 20k–65k flows) so
// replacement decisions dominate the hit rate, as in the paper's Fig. 5.
// The 3M-packet horizon matters: session closes recycle ephemeral ports,
// so dead tuples accumulate, and policies differ most in how fast they
// evict them (LPC pins dead elephants by packet count; s3fifo ages them
// out).
//
// All figures are modelled/deterministic: hit rate and eviction counts
// from the cache counters, latency percentiles from the DES cost model.
// Wall-clock cost is measured by benchmark/ (BENCHMARK.json), never in
// experiment tables.

// policyPresetRun drives n packets of one CAIDA-year preset through the
// DES with the named replacement policy.
func policyPresetRun(year int, policy string, n int) (*flowcache.Cache, snic.Report) {
	cfg := flowcache.DefaultConfig(8)
	cfg.Policy = policy
	// Rings sized so a host that never drains overflows partway through:
	// the drop count ranks how much eviction pressure each policy pushes
	// toward the host on the same stream.
	cfg.RingEntries = 4096
	e, c := cacheOnSNIC(cfg, flowcache.General, snic.DefaultConfig())
	src := trace.CAIDA(year).Stream()
	i := 0
	rep := e.Run(packet.Buffered(func(yield func(packet.Packet) bool) {
		for p := range src {
			if i >= n || !yield(p) {
				return
			}
			i++
		}
	}, 1024))
	return c, rep
}

// PoliciesTable is the `policies` experiment: replacement policy ×
// CAIDA-year preset, reporting hit rate, modelled latency percentiles,
// eviction volume and ring-drop pressure.
func PoliciesTable(scale float64) *Table {
	n := scaleInt(3_000_000, scale)
	t := &Table{
		ID:    "policies",
		Title: "Replacement policies x CAIDA-year presets: hit rate, modelled latency, eviction pressure",
		Columns: []string{"preset", "policy", "hit_rate", "p50_ns", "p99_ns",
			"evictions", "ring_drops"},
	}
	for _, year := range []int{2015, 2016, 2018, 2019} {
		for _, policy := range []string{
			flowcache.PolicyNameLRULPC, flowcache.PolicyNameLRU, flowcache.PolicyNameS3FIFO,
		} {
			c, rep := policyPresetRun(year, policy, n)
			st := c.Stats()
			t.AddRow(fmt.Sprintf("caida%d", year), policy,
				fmt.Sprintf("%.4f", st.HitRate()),
				f2(rep.Latency.Percentile(50)), f2(rep.Latency.Percentile(99)),
				fmt.Sprint(st.Evictions), fmt.Sprint(st.RingDrops))
		}
	}
	t.Notes = append(t.Notes,
		"table undersized vs live flows (3,072 entries) so replacement decisions dominate",
		"measured shape: s3fifo edges out lru-lpc on the heavier-tailed 2016-2019 presets (freq aging evicts dead session tuples that LPC's packet counts pin in E) with fewer evictions and ring drops; lru-lpc keeps the flattest 2015 preset where full-precision counts beat a 2-bit freq",
		"wall-clock cost is measured by benchmark/ (BENCHMARK.json), not here")
	return t
}
