//go:build ignore

// deadnames lists the exported functions and methods under internal/ that
// no product binary contains: the code only tests, or only the benchmark,
// keep alive.
//
//	go run scripts/deadnames.go > scripts/deadnames.txt
//
// Run from the repository root. It builds every root — cmd/eul3d,
// cmd/eul3dd, cmd/eul3dc, cmd/meshgen, cmd/partition, cmd/benchtables
// (it writes results/) and each examples/* program — with inlining off
// (-gcflags=all=-l), so that a function the linker keeps appears as its
// own symbol, and reads the symbols with go tool nm. The linker drops
// every function no root can reach, so a declared name missing from all
// of them is dead. Each dead name is marked "bench" when cmd/bench's
// binary contains it (the benchmark alone keeps it alive) and "test"
// otherwise (tests use it, or nothing does). Generic functions and
// methods on generic types are left out: nm prints their instantiations,
// not their names. A method the linker keeps for an interface it never
// calls through is counted live, so the list can miss names but does not
// list live ones. make deadcheck diffs the output against the checked-in
// list.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module = "eul3d"

// roots are the product's main packages, relative to the repository root;
// each examples/* directory is added to them.
var roots = []string{"cmd/eul3d", "cmd/eul3dd", "cmd/eul3dc", "cmd/meshgen", "cmd/partition", "cmd/benchtables"}

func main() {
	dir, err := os.MkdirTemp("", "deadnames")
	check(err)
	defer os.RemoveAll(dir)

	examples, err := filepath.Glob("examples/*/main.go")
	check(err)
	for _, e := range examples {
		roots = append(roots, filepath.Dir(e))
	}
	live := map[string]bool{}
	for i, r := range roots {
		bin := filepath.Join(dir, fmt.Sprint("root", i))
		build(".", "./"+r, bin)
		symbols(bin, live)
	}
	// cmd/bench is a module of its own, so it builds from its directory.
	bench := map[string]bool{}
	build("cmd/bench", ".", filepath.Join(dir, "bench"))
	symbols(filepath.Join(dir, "bench"), bench)

	var out []string
	for _, name := range declared("internal") {
		switch {
		case live[name]:
		case bench[name]:
			out = append(out, "bench "+name)
		default:
			out = append(out, "test  "+name)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][6:] < out[b][6:] })
	fmt.Println("# Exported functions and methods under internal/ that no product binary")
	fmt.Println("# contains. bench: only cmd/bench keeps it alive; test: only tests, or")
	fmt.Println("# nothing. Generated by `go run scripts/deadnames.go`; `make deadcheck`")
	fmt.Println("# fails while this list and the tree disagree.")
	for _, l := range out {
		fmt.Println(l)
	}
}

// build compiles the main package pkg, from directory dir, into bin with
// inlining off.
func build(dir, pkg, bin string) {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, pkg)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	check(cmd.Run())
}

// symbols adds the text symbols of bin to set.
func symbols(bin string, set map[string]bool) {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	check(err)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "address type name"; a generic instantiation's name has spaces.
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			set[f[2]] = true
		}
	}
	check(sc.Err())
}

// declared returns, spelled as nm prints them, the exported non-generic
// functions and methods declared in the non-test files under root.
func declared(root string) []string {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Type.TypeParams != nil {
				continue
			}
			if fn.Recv == nil {
				names = append(names, pkg+"."+fn.Name.Name)
				continue
			}
			recv, ptr := fn.Recv.List[0].Type, false
			if star, ok := recv.(*ast.StarExpr); ok {
				recv, ptr = star.X, true
			}
			id, ok := recv.(*ast.Ident) // a generic receiver is an index expression
			if !ok {
				continue
			}
			if ptr {
				names = append(names, pkg+".(*"+id.Name+")."+fn.Name.Name)
			} else {
				names = append(names, pkg+"."+id.Name+"."+fn.Name.Name)
			}
		}
		return nil
	})
	check(err)
	return names
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadnames:", err)
		os.Exit(1)
	}
}
