package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reasons DESIGN §8 accepts for a declaration no door reaches.
const (
	reasonOracle  = "differential oracle or independent reference"
	reasonPaper   = "paper printer or figure input"
	reasonWriter  = "reference writer for a live reader"
	reasonFixture = "test fixture, driver or assertion helper used by tests of live code"
)

// reachAllow lists every declaration of the module that no door reaches,
// each with the reason it stays. A key is a declaration
// (pkg.Name, pkg.Type.Method; pkg is the import path below the module,
// without "internal/") or a file relative to the module root, which
// covers every unreached declaration in it.
var reachAllow = map[string]string{
	// The differential harnesses and their input generator.
	"internal/check/gen.go":       reasonOracle,
	"internal/core/checksweep.go": reasonOracle,
	"internal/core/opssweep.go":   reasonOracle,
	"sparse.Uniform":              reasonOracle, // the Bernoulli draw check/gen.go's generator and the sweeps' inputs start from

	// The paper's figures and remarks, printed by tests against the text.
	"internal/compress/format.go":   reasonPaper,
	"internal/costmodel/remarks.go": reasonPaper,
	"sparse.PaperFigure1":           reasonPaper,

	// Writers whose output the live parsers and wire decoders read back.
	"internal/sparse/hb.go": reasonWriter,
	"compress.PackCRS":      reasonWriter,
	"compress.PackCCS":      reasonWriter,
	"compress.PackJDS":      reasonWriter,

	// What tests of live code build on.
	"internal/benchgate/benchgate.go":    reasonFixture,
	"internal/machine/fault.go":          reasonFixture,
	"client.Client.Cancel":               reasonFixture, // drives DELETE /jobs/{id} in TestCancelRunningJob
	"client.Client.SetHTTPClient":        reasonFixture, // the widened connection pool of TestLoad500ConcurrentSubmissions
	"compress.CRS.At":                    reasonFixture,
	"compress.CRS.Clone":                 reasonFixture,
	"compress.CRS.Equal":                 reasonFixture,
	"compress.CCS.At":                    reasonFixture,
	"compress.CCS.Clone":                 reasonFixture,
	"compress.CCS.Equal":                 reasonFixture,
	"compress.CRSToCCS":                  reasonFixture,
	"compress.lines.at":                  reasonFixture,
	"compress.lines.clone":               reasonFixture,
	"compress.lines.equal":               reasonFixture,
	"machine.SettledGoroutines":          reasonFixture,
	"machine.wantAny":                    reasonFixture, // the zero want every test's recvAny matches with
	"partition.Extract":                  reasonFixture, // the body of ExtractAll: one part's dense local
	"partition.ExtractAll":               reasonFixture, // every part's dense local for TestEngineParity's SFC reference, the partition and cost-model consistency tests
	"partition.Grid.Grid":                reasonFixture,
	"partition.Validate":                 reasonFixture,
	"partition.checkSorted":              reasonFixture,
	"simnet.Timeline.Hash":               reasonFixture,
	"simnet.Timeline.MaxLinkUtilization": reasonFixture,
	"sparse.COO.ToDense":                 reasonFixture,
	"sparse.Dense.ApproxEqual":           reasonFixture,
	"sparse.Dense.Equal":                 reasonFixture,
	"sparse.Dense.Transpose":             reasonFixture,
	"sparse.NewDenseFrom":                reasonFixture,
	"sparse.Diagonal":                    reasonFixture,
	"sparse.LocalStats":                  reasonFixture,
	"sparse.Stats":                       reasonFixture,
	"sparse.StreamCOO":                   reasonFixture,
	"sparse.NewStreamCOO":                reasonFixture,
	"sparse.StreamCOO.Shape":             reasonFixture,
	"sparse.StreamCOO.NNZHint":           reasonFixture,
	"sparse.StreamCOO.Next":              reasonFixture,
	"sparse.StreamCOO.Reset":             reasonFixture,
}

// TestEveryDeclarationHasADoor enforces DESIGN §8's reachability rule:
// every declaration of the module is reached from a door (main in
// cmd/* and bench/, an init, a package variable's initializer) or is
// listed in reachAllow with its reason, and every entry of reachAllow
// still names an unreached declaration.
func TestEveryDeclarationHasADoor(t *testing.T) {
	decls, err := reachability(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	problems, byReason := checkDoors(decls, reachAllow)
	for _, p := range problems {
		t.Error(p)
	}
	reasons := make([]string, 0, len(byReason))
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	total := 0
	for _, r := range reasons {
		t.Logf("%5d lines unreached: %s", byReason[r], r)
		total += byReason[r]
	}
	t.Logf("%5d lines unreached in all", total)
}

// TestDoorCheckerReportsByName runs the same analysis over a tiny module
// with one reached function, one unreached one and an allowlist entry for
// the reached one: both must be reported by name with their line counts.
func TestDoorCheckerReportsByName(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module door\n\ngo 1.22\n",
		"main.go": `package main

import "door/lib"

func main() { lib.Reached() }
`,
		"lib/lib.go": `package lib

// Reached is called from main.
func Reached() {}

// Unreached has no caller.
func Unreached() {
	println("nobody")
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decls, err := reachability(dir)
	if err != nil {
		t.Fatal(err)
	}
	problems, _ := checkDoors(decls, map[string]string{"lib.Reached": reasonFixture})
	want := []string{
		"lib.Reached (2 lines, lib/lib.go): reached from a door; drop its allowlist entry",
		"lib.Unreached (4 lines, lib/lib.go): no door reaches it and no allowlist entry gives a reason",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// checkDoors matches the declarations against the allowlist. It returns
// one line per unreached declaration without an entry and per stale
// entry, sorted, and the unreached lines booked to each reason.
func checkDoors(decls []*reachDecl, allow map[string]string) (problems []string, byReason map[string]int) {
	byReason = map[string]int{}
	byKey := map[string]*reachDecl{}
	files := map[string]bool{}
	fileUnreached := map[string]int{}
	for _, d := range decls {
		byKey[d.key] = d
		files[d.file] = true
		if d.reached {
			continue
		}
		reason, ok := allow[d.key]
		if !ok {
			reason, ok = allow[d.file]
			fileUnreached[d.file]++
		}
		if !ok {
			problems = append(problems, fmt.Sprintf("%s (%d lines, %s): no door reaches it and no allowlist entry gives a reason", d.key, d.lines, d.file))
			continue
		}
		byReason[reason] += d.lines
	}
	for key := range allow {
		switch d := byKey[key]; {
		case d != nil && d.reached:
			problems = append(problems, fmt.Sprintf("%s (%d lines, %s): reached from a door; drop its allowlist entry", key, d.lines, d.file))
		case d != nil:
		case !files[key]:
			problems = append(problems, fmt.Sprintf("%s: no such declaration or file; drop its allowlist entry", key))
		case fileUnreached[key] == 0:
			problems = append(problems, fmt.Sprintf("%s: every declaration in it is reached or listed by name; drop its allowlist entry", key))
		}
	}
	sort.Strings(problems)
	return problems, byReason
}

// reachDecl is one package-level declaration: a func, a method, or one
// spec of a type, var or const declaration.
type reachDecl struct {
	key     string // pkg.Name or pkg.Type.Method
	file    string // relative to its module's root
	lines   int    // doc comment included
	node    ast.Node
	info    *types.Info
	root    bool
	reached bool
}

type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path, Dir string }
}

// reachability type-checks, from source, every package of the modules in
// dirs (and the module packages they import) and marks each declaration
// of the first module reached or not. Roots are main in every main
// package, every init and every package variable with an initializer;
// edges are identifier uses. A method is also reached when its receiver
// type is and its name is that of an interface method the program
// mentions or one the standard library calls by dynamic check.
func reachability(dirs ...string) ([]*reachDecl, error) {
	var pkgs []*listedPackage
	seen := map[string]bool{}
	modPath := "" // the first module's: its declarations are the ones judged
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(listedPackage)
			if err := dec.Decode(p); err != nil {
				return nil, err
			}
			if modPath == "" && !p.DepOnly && p.Module != nil {
				modPath = p.Module.Path
			}
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p) // -deps lists dependencies first
			}
		}
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	imp := moduleImporter{checked, importer.Default()}
	objDecl := map[types.Object]*reachDecl{}
	var decls []*reachDecl
	var all []*reachDecl // both modules: bench/'s declarations are edges too
	ifaceNames := map[string]bool{}
	for _, name := range dynamicMethods {
		ifaceNames[name] = true
	}
	type method struct {
		recv *types.TypeName
		d    *reachDecl
	}
	var methods []method

	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		// Interface methods the program declares, named or anonymous, and
		// those of every interface type it names (io.Writer, heap.Interface).
		for _, obj := range info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceNames[fn.Name()] = true
				}
			}
		}
		for _, obj := range info.Uses {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceNames[it.Method(i).Name()] = true
					}
				}
			}
		}

		mine := p.Module != nil && p.Module.Path == modPath
		short := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath+"/"), "internal/")
		if p.ImportPath == modPath {
			short = filepath.Base(modPath)
		}
		for _, f := range files {
			file, _ := filepath.Rel(p.Module.Dir, fset.File(f.Pos()).Name())
			add := func(name string, node ast.Node, doc *ast.CommentGroup, objs ...types.Object) *reachDecl {
				start := node.Pos()
				if doc != nil {
					start = doc.Pos()
				}
				d := &reachDecl{
					key:   short + "." + name,
					file:  filepath.ToSlash(file),
					lines: fset.Position(node.End()).Line - fset.Position(start).Line + 1,
					node:  node,
					info:  info,
				}
				for _, obj := range objs {
					if obj != nil {
						objDecl[obj] = d
					}
				}
				all = append(all, d)
				if mine {
					decls = append(decls, d)
				}
				return d
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[decl.Name]
					if decl.Recv == nil {
						d := add(decl.Name.Name, decl, decl.Doc, obj)
						d.root = decl.Name.Name == "init" || (p.Name == "main" && decl.Name.Name == "main")
						continue
					}
					recv := receiverType(obj.(*types.Func))
					d := add(recv.Name()+"."+decl.Name.Name, decl, decl.Doc, obj)
					methods = append(methods, method{recv, d})
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						doc := decl.Doc
						if decl.Lparen.IsValid() {
							doc = nil
						}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							add(spec.Name.Name, spec, doc, info.Defs[spec.Name])
						case *ast.ValueSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							var names []string
							var objs []types.Object
							for _, n := range spec.Names {
								names = append(names, n.Name)
								objs = append(objs, info.Defs[n])
							}
							d := add(strings.Join(names, ","), spec, doc, objs...)
							d.root = decl.Tok == token.VAR && len(spec.Values) > 0
						}
					}
				}
			}
		}
	}

	// Flood from the roots; a method joins when its receiver type is
	// reached and its name is an interface method's.
	var queue []*reachDecl
	mark := func(d *reachDecl) {
		if d != nil && !d.reached {
			d.reached = true
			queue = append(queue, d)
		}
	}
	for _, d := range all {
		if d.root {
			mark(d)
		}
	}
	for {
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					mark(objDecl[origin(d.info.Uses[id])])
				}
				return true
			})
		}
		for _, m := range methods {
			if !m.d.reached && ifaceNames[m.d.node.(*ast.FuncDecl).Name.Name] && objDecl[m.recv].reached {
				mark(m.d)
			}
		}
		if len(queue) == 0 {
			return decls, nil
		}
	}
}

// dynamicMethods are method names the standard library calls through an
// interface the program need not name (fmt, encoding/json, errors, sort,
// container/heap, io, net/http, flag).
var dynamicMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "Close", "ReadFrom", "WriteTo", "ServeHTTP", "Set",
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func receiverType(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// moduleImporter serves module packages already checked from source and
// the standard library from the default importer.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}
