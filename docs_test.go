package smartwatch_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoRoadmapItemPointers: code, scripts and the Makefile cite DESIGN.md
// sections, never the roadmap's numbered items — those renumber whenever it
// is rewritten, so such a pointer goes stale. benchmark/ is exempt: it is
// edited only by changes to the benchmark itself.
func TestNoRoadmapItemPointers(t *testing.T) {
	needle := "ROADMAP " + "item" // split, or this file would match itself
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".sh") && d.Name() != "Makefile" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			if strings.Contains(line, needle) {
				t.Errorf("%s:%d cites the roadmap, not DESIGN.md: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
