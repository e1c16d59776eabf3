//go:build ignore

// settable counts the independently settable values of the product: the
// exported fields of every exported struct type named Config, Options or
// RunOptions under internal/, and the command-line flags each command
// defines.
//
//	go run scripts/settable.go internal cmd/eul3d cmd/eul3dd cmd/eul3dc
//
// The first argument is the tree whose option structs are counted; every
// further argument is a command directory whose flag.<Kind> definitions
// are counted. Test files are skipped. One line per struct and command,
// then the total.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// optionTypes are the struct names that carry a caller's settings.
var optionTypes = map[string]bool{"Config": true, "Options": true, "RunOptions": true}

// flagDefs are the flag package's definition functions.
var flagDefs = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/settable.go TREE [CMDDIR...]")
		os.Exit(2)
	}
	total := 0
	rows, err := optionFields(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range rows {
		fmt.Printf("%6d  %s\n", r.n, r.name)
		total += r.n
	}
	for _, dir := range os.Args[2:] {
		n, err := flagCount(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%6d  %s flags\n", n, dir)
		total += n
	}
	fmt.Printf("%6d  total settable values\n", total)
}

type row struct {
	name string
	n    int
}

// goFiles returns the non-test Go files under root, sorted.
func goFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			out = append(out, path)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// optionFields counts the exported fields of each option struct under root,
// named by package directory and type.
func optionFields(root string) ([]row, error) {
	files, err := goFiles(root)
	if err != nil {
		return nil, err
	}
	var rows []row
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !optionTypes[ts.Name.Name] {
					continue
				}
				n := 0
				for _, fld := range st.Fields.List {
					if len(fld.Names) == 0 { // embedded: settable as one value
						n++
					}
					for _, id := range fld.Names {
						if id.IsExported() {
							n++
						}
					}
				}
				rows = append(rows, row{filepath.Dir(path) + "." + ts.Name.Name, n})
			}
		}
	}
	return rows, nil
}

// flagCount counts the calls flag.<Def>(...) in dir's non-test files.
func flagCount(dir string) (int, error) {
	files, err := goFiles(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return 0, err
		}
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && flagDefs[sel.Sel.Name] {
				n++
			}
			return true
		})
	}
	return n, nil
}
