// Command knobs counts the repository's settable values and lists the ones
// nothing sets.
//
// A settable value is an exported field of one of the configuration structs
// in structs, a parameter of one of the constructors in funcs, or a flag of
// cmd/hammerhead-node. For every field it also looks for writes from non-test
// code outside the field's own package — a keyed composite literal, an
// assignment, an increment or an address taken — and for every parameter
// for an outside non-test call that passes something other than a literal
// zero. The fields and parameters nothing outside sets are listed: each is a
// candidate for a constant of the package that uses it. The flags are all
// set by whoever runs the node, so they are counted only.
//
// It reads the root module and, when present, the bench module (with the
// benchprobes tag), type-checking each package's non-test files from source
// against the export data `go list -export` builds. It reports and never
// fails on what it finds: it is not a gate.
//
// Usage, from the repository root:
//
//	go run ./tools/knobs
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// structs are the configuration structs whose exported fields count.
var structs = []target{
	{"hammerhead/internal/engine", "Config"},
	{"hammerhead/internal/core", "Config"},
	{"hammerhead/internal/node", "Config"},
	{"hammerhead/internal/mempool", "FairConfig"},
	{"hammerhead/internal/simnet", "ClusterConfig"},
	{"hammerhead/internal/experiment", "Scenario"},
	{"hammerhead/internal/execution", "Config"},
	{"hammerhead/internal/rpc", "Config"},
	{"hammerhead/internal/replica", "Config"},
}

// funcs are the constructors whose parameters count.
var funcs = []target{
	{"hammerhead/internal/storage", "NewSnapshotStore"},
}

// flagsPkg is the command whose flags count.
const flagsPkg = "hammerhead/cmd/hammerhead-node"

// modules are the module directories read, each with its build tags.
var modules = []struct{ dir, tags string }{
	{".", ""},
	{"bench", "benchprobes"},
}

type target struct{ pkg, name string }

func (t target) String() string { return t.pkg[strings.LastIndex(t.pkg, "/")+1:] + "." + t.name }

// settable is one counted value and whether outside non-test code sets it.
type settable struct {
	owner target
	name  string
	set   bool
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knobs:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	fields := map[string]*settable{} // key: owner/name
	params := map[string]*settable{}
	var order []*settable
	flags := 0
	for _, mod := range modules {
		if _, err := os.Stat(filepath.Join(mod.dir, "go.mod")); err != nil {
			continue
		}
		pkgs, err := goList(mod.dir, mod.tags)
		if err != nil {
			return err
		}
		exports := map[string]string{}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
		fset := token.NewFileSet()
		imp := exportImporter(fset, exports)
		for _, p := range pkgs {
			if p.Standard || p.DepOnly || p.Module == nil {
				continue
			}
			if p.Error != nil {
				return fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			files, pkg, info, err := check(fset, imp, p)
			if err != nil {
				return err
			}
			if mod.dir == "." {
				order = append(order, declared(pkg, fields, params)...)
				if p.ImportPath == flagsPkg {
					flags = countFlags(files, info)
				}
			}
			markWrites(p.ImportPath, files, info, fields, params)
		}
	}

	fmt.Fprintf(w, "settable values: %d (%d struct fields, %d constructor parameters, %d hammerhead-node flags)\n",
		len(fields)+len(params)+flags, len(fields), len(params), flags)
	byOwner := map[target]int{}
	for _, s := range order {
		byOwner[s.owner]++
	}
	for _, t := range append(append([]target(nil), structs...), funcs...) {
		fmt.Fprintf(w, "  %-26s %d\n", t, byOwner[t])
	}
	fmt.Fprintf(w, "  %-26s %d\n", "hammerhead-node flags", flags)
	var unset []string
	for _, s := range order {
		if !s.set {
			unset = append(unset, s.owner.String()+"."+s.name)
		}
	}
	fmt.Fprintf(w, "set by no non-test code outside their package: %d\n", len(unset))
	for _, u := range unset {
		fmt.Fprintf(w, "  %s\n", u)
	}
	return nil
}

// declared registers the targets pkg declares and returns them in
// declaration order.
func declared(pkg *types.Package, fields, params map[string]*settable) []*settable {
	var out []*settable
	for _, t := range structs {
		if t.pkg != pkg.Path() {
			continue
		}
		st, ok := pkg.Scope().Lookup(t.name).Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() {
				s := &settable{owner: t, name: f.Name()}
				fields[key(t, f.Name())] = s
				out = append(out, s)
			}
		}
	}
	for _, t := range funcs {
		if t.pkg != pkg.Path() {
			continue
		}
		sig := pkg.Scope().Lookup(t.name).Type().(*types.Signature)
		for i := range sig.Params().Len() {
			s := &settable{owner: t, name: sig.Params().At(i).Name()}
			params[key(t, fmt.Sprint(i))] = s
			out = append(out, s)
		}
	}
	return out
}

func key(t target, name string) string { return t.pkg + "." + t.name + "/" + name }

// markWrites records the targets' fields and parameters that the files of
// package path set, when path is not the target's own package.
func markWrites(path string, files []*ast.File, info *types.Info, fields, params map[string]*settable) {
	setField := func(owner *types.Named, name string) {
		if owner == nil || owner.Obj().Pkg() == nil || owner.Obj().Pkg().Path() == path {
			return
		}
		if s, ok := fields[key(target{owner.Obj().Pkg().Path(), owner.Obj().Name()}, name)]; ok {
			s.set = true
		}
	}
	selected := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			setField(fieldOwner(s), sel.Sel.Name)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				named := namedOf(info.TypeOf(n))
				if named == nil {
					break
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							setField(named, id.Name)
						}
					} else if i < st.NumFields() {
						setField(named, st.Field(i).Name())
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					selected(lhs)
				}
			case *ast.IncDecStmt:
				selected(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					selected(n.X)
				}
			case *ast.CallExpr:
				fn, ok := callee(info, n).(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() == path {
					break
				}
				t := target{fn.Pkg().Path(), fn.Name()}
				for i, arg := range n.Args {
					if s, ok := params[key(t, fmt.Sprint(i))]; ok && !isZero(info, arg) {
						s.set = true
					}
				}
			}
			return true
		})
	}
}

// fieldOwner is the named struct that declares the field a selection picks,
// following embedded fields.
func fieldOwner(s *types.Selection) *types.Named {
	t := s.Recv()
	var owner *types.Named
	for _, i := range s.Index() {
		owner = namedOf(t)
		if owner == nil {
			return nil
		}
		st, ok := owner.Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		t = st.Field(i).Type()
	}
	return owner
}

// namedOf strips pointers and aliases down to a named type (nil if none).
func namedOf(t types.Type) *types.Named {
	for t != nil {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
	return nil
}

// callee is the function or method a call invokes statically (nil
// for calls through function values and conversions).
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			return s.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// isZero reports an argument that is a constant zero value or nil.
func isZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	if tv.IsNil() {
		return true
	}
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	case constant.String:
		return constant.StringVal(tv.Value) == ""
	case constant.Bool:
		return !constant.BoolVal(tv.Value)
	}
	return false
}

// flagDefiners are the flag package's functions and *flag.FlagSet methods
// that define one flag each.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// countFlags counts the flag definitions in files.
func countFlags(files []*ast.File, info *types.Info) int {
	n := 0
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if fn, ok := callee(info, call).(*types.Func); ok &&
					fn.Pkg() != nil && fn.Pkg().Path() == "flag" && flagDefiners[fn.Name()] {
					n++
				}
			}
			return true
		})
	}
	return n
}

// listPkg is the part of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList lists every package of the module in dir with its dependencies,
// building export data for them.
func goList(dir, tags string) ([]*listPkg, error) {
	args := []string{"list", "-e", "-export", "-json", "-deps"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	cmd := exec.Command("go", append(args, "./...")...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []*listPkg
	for dec := json.NewDecoder(&stdout); ; {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("parsing go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportImporter imports packages from the export data files go list built.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.Import(path)
	})
}

// check parses and type-checks a package's non-test files.
func check(fset *token.FileSet, imp types.Importer, p *listPkg) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return files, pkg, info, nil
}
