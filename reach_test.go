package smartwatch_test

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var reachFunc = flag.String("reach", "", "judge this `go tool cover -func` listing of the product's coverage against scripts/unreached.txt (make reach)")

// unreachedList is the committed list of functions no product surface
// runs that stay, one `FILE Recv.Name reason...` entry a line.
const unreachedList = "scripts/unreached.txt"

// funcKey names a function the way the list does: its file, then
// Recv.Name for a method (the receiver's base type, no pointer or type
// parameters) or Name for a function.
func funcKey(file string, d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) == 1 {
		return file + " " + baseType(d.Recv.List[0].Type) + "." + d.Name.Name
	}
	return file + " " + d.Name.Name
}

// baseType names the type an expression refers to, without pointer,
// package qualifier or type parameters; "" for a type literal.
func baseType(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.StarExpr:
		return baseType(x.X)
	case *ast.IndexExpr:
		return baseType(x.X)
	case *ast.IndexListExpr:
		return baseType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// parseFuncs parses one Go file and returns its functions' keys by the
// line their func keyword is on, which is the line `cover -func` prints.
func parseFuncs(fset *token.FileSet, file string) (map[int]string, error) {
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	byLine := map[int]string{}
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok {
			byLine[fset.Position(d.Pos()).Line] = funcKey(file, d)
		}
	}
	return byLine, nil
}

// readUnreached parses the list into its set of keys; an entry without a
// reason is an error.
func readUnreached(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(unreachedList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	list := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("%s:%d: want FILE Recv.Name reason, got %q", unreachedList, n, line)
			continue
		}
		key := fields[0] + " " + fields[1]
		if list[key] {
			t.Errorf("%s:%d: %s listed twice", unreachedList, n, key)
		}
		list[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return list
}

// judged reports whether reach holds a 0 % function in file to the list:
// benchmark/ runs the product but is not part of it.
func judged(file string) bool { return !strings.HasPrefix(file, "benchmark/") }

// TestUnreachedListResolves: every entry of the list names a function of
// the non-test tree that reach judges, and says why it stays. Deleting a
// function therefore deletes its entry.
func TestUnreachedListResolves(t *testing.T) {
	list := readUnreached(t)
	have := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range treeFiles(t) {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.Contains(path, "testdata/") {
			continue
		}
		funcs, err := parseFuncs(fset, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range funcs {
			have[key] = true
		}
	}
	for key := range list {
		file := key[:strings.IndexByte(key, ' ')]
		switch {
		case !have[key]:
			t.Errorf("%s: %s names no function", unreachedList, key)
		case !judged(file):
			t.Errorf("%s: %s is not judged by reach (benchmark/)", unreachedList, key)
		}
	}
}

// TestReach judges a product coverage listing (`go tool cover -func`,
// from scripts/reach.sh) against the list: it prints every judged function
// at 0 %, fails on one the list does not name, and reports listed
// functions the run did reach.
func TestReach(t *testing.T) {
	if *reachFunc == "" {
		t.Skip("no -reach listing")
	}
	list := readUnreached(t)
	f, err := os.Open(*reachFunc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fset := token.NewFileSet()
	parsed := map[string]map[int]string{}
	var zero, missing, reached []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// smartwatch/internal/core/platform.go:316:	Whitelist	0.0%
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || !strings.HasPrefix(fields[0], "smartwatch/") {
			continue
		}
		file, pos, _ := strings.Cut(strings.TrimPrefix(fields[0], "smartwatch/"), ":")
		line, err := strconv.Atoi(strings.TrimSuffix(pos, ":"))
		if err != nil {
			t.Fatalf("unexpected cover line %q", sc.Text())
		}
		if parsed[file] == nil {
			if parsed[file], err = parseFuncs(fset, file); err != nil {
				t.Fatal(err)
			}
		}
		key, ok := parsed[file][line]
		if !ok {
			t.Fatalf("%s:%d: no function starts there (%q)", file, line, fields[1])
		}
		listed := list[key]
		if fields[2] != "0.0%" {
			if listed {
				reached = append(reached, key)
			}
			continue
		}
		if !judged(file) {
			continue
		}
		zero = append(zero, key)
		if !listed {
			missing = append(missing, key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(zero)
	fmt.Printf("reach: %d judged functions at 0 %%\n", len(zero))
	for _, key := range zero {
		fmt.Println("  " + key)
	}
	sort.Strings(reached)
	for _, key := range reached {
		fmt.Printf("reach: listed but reached this run: %s\n", key)
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("unreached and not on %s: %s", unreachedList, key)
	}
}
