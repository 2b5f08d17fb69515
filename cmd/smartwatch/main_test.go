package main

import (
	"strings"
	"testing"
)

// TestCheckShards: every -shards / -workers / -rowbits geometry that
// flowcache.NewShardedOffset would panic on is an error here, and the
// geometries the determinism sweeps run are not.
func TestCheckShards(t *testing.T) {
	cases := []struct {
		name                     string
		shards, workers, rowBits int
		want                     string // error substring; "" = valid
	}{
		{"default", 1, 1, 14, ""},
		{"four shards", 4, 1, 14, ""},
		{"cluster split", 2, 4, 14, ""},
		{"default table", 8, 2, 0, ""},
		{"one row bit left", 4, 2, 4, ""},
		{"zero", 0, 1, 14, "power of two"},
		{"negative", -4, 1, 14, "power of two"},
		{"three", 3, 1, 14, "power of two"},
		{"no row bits left", 4, 1, 2, "leave 0 of 2 row bits"},
		{"workers take the rest", 2, 4, 3, "leave 0 of 3 row bits"},
		{"default table exhausted", 4096, 1, 0, "leave 0 of 12 row bits"},
	}
	for _, tc := range cases {
		err := checkShards(tc.shards, tc.workers, tc.rowBits)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
