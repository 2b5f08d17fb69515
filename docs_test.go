package smartwatch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoRoadmapItemPointers: code, scripts and the Makefile cite DESIGN.md
// sections, never the roadmap's numbered items — those renumber whenever it
// is rewritten, so such a pointer goes stale. benchmark/ is exempt: it is
// edited only by changes to the benchmark itself.
func TestNoRoadmapItemPointers(t *testing.T) {
	needle := "ROADMAP " + "item" // split, or this file would match itself
	for _, path := range treeFiles(t) {
		if strings.HasPrefix(path, "benchmark/") || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".sh") || path == "Makefile") {
			continue
		}
		for i, line := range strings.Split(readFile(t, path), "\n") {
			if strings.Contains(line, needle) {
				t.Errorf("%s:%d cites the roadmap, not DESIGN.md: %s", path, i+1, strings.TrimSpace(line))
			}
		}
	}
}

var (
	resolvedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}
	// Top-level Markdown files whose § pointers are checked. The others —
	// CHANGES.md, history, and notes on one change or on the paper — quote
	// the numbering of their day.
	pointerDocs   = map[string]bool{"DESIGN.md": true, "README.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true}
	designMaxLine = 1000
	designHeading = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)
	// "DESIGN.md §N", "DESIGN.md §N.M, §K", "DESIGN.md §N.M–N.K", also
	// across a line break and a comment marker.
	designPointer = regexp.MustCompile(`DESIGN\.md(?:\s|//|#)*§(\d+(?:\.\d+)?)((?:\s*(?:,|and|/)\s*(?:(?://|#)\s*)?§\d+(?:\.\d+)?|–\d+(?:\.\d+)?)*)`)
	sectionNumber = regexp.MustCompile(`\d+(?:\.\d+)?`)
	backticked    = regexp.MustCompile("`([^`\n]+)`")
	pathToken     = regexp.MustCompile(`^(?:\./)?[\w.*-]+(?:/[\w.*-]*)*$`)
	// X.Name, or pkg.Type.Name, at the start of a selector chain.
	selector = regexp.MustCompile(`(?:^|[^\w.])\(?\*?([A-Za-z_]\w*)\)?\.([A-Za-z_]\w*\*?)(?:\.([A-Za-z_]\w*\*?))?`)
	fileExt  = map[string]bool{"go": true, "s": true, "sh": true, "md": true, "txt": true, "json": true, "golden": true, "yml": true, "mod": true}
)

// TestDocsResolve: every DESIGN.md § pointer in the tree names a heading of
// it (top-level Markdown outside pointerDocs is not checked); every repo
// path and every `X.Name` — X a package or a type declared in the tree,
// test files included — that resolvedDocs put in backticks names something
// that exists; DESIGN.md stays within designMaxLine lines. A lower-case
// name after a package (`core.time_jumps`) is a metric series and is not
// checked.
func TestDocsResolve(t *testing.T) {
	files := treeFiles(t)
	pkgs, types := treeDecls(t, files)
	design := readFile(t, "DESIGN.md")
	if n := strings.Count(design, "\n"); n > designMaxLine {
		t.Errorf("DESIGN.md has %d lines, more than %d: a change edits the section it lives in and puts its measurements in CHANGES.md", n, designMaxLine)
	}
	headings := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		headings[m[1]] = true
	}
	for _, path := range files {
		if filepath.Ext(path) == ".md" && !strings.Contains(path, "/") && !pointerDocs[path] || !(fileExt[strings.TrimPrefix(filepath.Ext(path), ".")] || path == "Makefile") {
			continue
		}
		b := readFile(t, path)
		for _, m := range designPointer.FindAllStringSubmatchIndex(b, -1) {
			for _, sec := range append([]string{b[m[2]:m[3]]}, sectionNumber.FindAllString(b[m[4]:m[5]], -1)...) {
				if !headings[sec] {
					t.Errorf("%s:%d: DESIGN.md §%s names no heading", path, 1+strings.Count(b[:m[0]], "\n"), sec)
				}
			}
		}
	}
	for _, doc := range resolvedDocs {
		fenced := false
		for i, line := range strings.Split(readFile(t, doc), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				switch {
				case fenced:
				case isPath(m[1]):
					if !pathExists(m[1], files) {
						t.Errorf("%s:%d: `%s` names no file or directory in the tree", doc, i+1, m[1])
					}
				case unresolvedName(m[1], pkgs, types) != "":
					t.Errorf("%s:%d: `%s`: %s", doc, i+1, m[1], unresolvedName(m[1], pkgs, types))
				}
			}
		}
	}
}

// isPath reports whether a backticked token is a repo path: a file name
// with an extension of fileExt, or a slashed path under a directory at the
// root, or under internal/ or cmd/.
func isPath(tok string) bool {
	p := strings.TrimPrefix(tok, "./")
	if ok := pathToken.MatchString(tok); !ok || fileExt[strings.TrimPrefix(filepath.Ext(p), ".")] {
		return ok
	}
	top, _, slashed := strings.Cut(p, "/")
	for _, dir := range []string{top, "internal/" + top, "cmd/" + top} {
		if fi, err := os.Stat(dir); slashed && err == nil && fi.IsDir() {
			return true
		}
	}
	return false
}

// pathExists reports whether a repo path (a glob, relative to the root or
// to any directory, or a bare base name) names a file or a directory.
func pathExists(tok string, files []string) bool {
	p := strings.TrimSuffix(strings.TrimPrefix(tok, "./"), "/")
	for _, f := range files {
		for i := range f {
			if ok, _ := filepath.Match(p, f[i:]); (i == 0 || f[i-1] == '/') && (ok || strings.HasPrefix(f[i:], p+"/")) {
				return true
			}
		}
	}
	return false
}

// unresolvedName checks every X.Name in a token — X a type (any Name), or
// a package (an exported Name; for pkg.Type.Name also the type's Name) —
// and says what the last one that names nothing lacks. A trailing * matches
// any member with that prefix.
func unresolvedName(tok string, pkgs, types map[string]map[string]bool) (bad string) {
	check := func(x, name string, members map[string]bool) {
		prefix, found := strings.TrimSuffix(name, "*"), members[name]
		for m := range members {
			found = found || (prefix != name && strings.HasPrefix(m, prefix))
		}
		if !found {
			bad = x + " declares no " + name
		}
	}
	for _, m := range selector.FindAllStringSubmatch(tok, -1) {
		x, name, next := m[1], m[2], m[3]
		switch {
		case fileExt[name]:
		case types[x] != nil && !pkgs[x][name]:
			check(x, name, types[x])
		case pkgs[x] != nil && ast.IsExported(name):
			check(x, name, pkgs[x])
			if next != "" && types[name] != nil {
				check(name, next, types[name])
			}
		}
	}
	return bad
}

// treeFiles lists the repo's files, skipping .git and what building and
// benchmarking leave behind.
func treeFiles(t *testing.T) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") && d.Name() != ".claude" && d.Name() != ".github" || path == "benchmark/out"):
			return filepath.SkipDir
		case !d.IsDir():
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// readFile returns a file of the tree as a string.
func readFile(t *testing.T, path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// treeDecls parses every Go file and returns each package's top-level
// names and each type's fields and methods; same-named types of different
// packages share one set, and a type also has the members of the types it
// embeds, aliases or is defined as.
func treeDecls(t *testing.T, files []string) (pkgs, types map[string]map[string]bool) {
	pkgs, types = map[string]map[string]bool{}, map[string]map[string]bool{}
	add := func(m map[string]map[string]bool, x, name string) {
		if m[x] == nil {
			m[x] = map[string]bool{}
		}
		m[x][name] = true
	}
	embeds := map[string][]string{}
	for _, path := range files {
		if !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata/") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				if recv, name, ok := strings.Cut(funcKey("", d)[1:], "."); ok {
					add(types, recv, name)
				} else {
					add(pkgs, pkg, recv)
				}
				continue
			}
			for _, spec := range decl.(*ast.GenDecl).Specs {
				if v, ok := spec.(*ast.ValueSpec); ok {
					for _, n := range v.Names {
						add(pkgs, pkg, n.Name)
					}
				}
				s, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				name, fields := s.Name.Name, []*ast.Field{{Type: s.Type}} // an alias or a defined type embeds its base
				add(pkgs, pkg, name)
				add(types, name, "")
				switch x := s.Type.(type) {
				case *ast.StructType:
					fields = x.Fields.List
				case *ast.InterfaceType:
					fields = x.Methods.List
				}
				for _, fl := range fields {
					for _, n := range fl.Names {
						add(types, name, n.Name)
					}
					if len(fl.Names) == 0 {
						add(types, name, baseType(fl.Type))
						embeds[name] = append(embeds[name], baseType(fl.Type))
					}
				}
			}
		}
	}
	for range 3 { // embedding depth
		for x, es := range embeds {
			for _, e := range es {
				for name := range types[e] {
					add(types, x, name)
				}
			}
		}
	}
	return pkgs, types
}
