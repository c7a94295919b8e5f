package paella

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// paperAnchor matches a citation of the source paper: a section sign, or a
// spelled-out Figure/Table/section reference.
var paperAnchor = regexp.MustCompile(`§|Figure\s+\d|Fig\.\s*\d|Table\s+\d|SOSP`)

// TestInternalPackageDocs enforces the documentation contract: every
// internal/* package carries a package comment, and that comment anchors
// the package to the paper (a §/Figure/Table reference) so readers can
// find the design it implements. docs/ARCHITECTURE.md relies on this.
func TestInternalPackageDocs(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			comment := packageDoc(t, filepath.Join("internal", name))
			if strings.TrimSpace(comment) == "" {
				t.Fatalf("package %s has no package comment", name)
			}
			if !paperAnchor.MatchString(comment) {
				t.Fatalf("package %s's doc cites no paper anchor (§, Figure, or Table):\n%s",
					name, comment)
			}
		})
	}
}

// TestExportedSymbolDocs enforces the second half of the documentation
// contract: every exported symbol in every internal/* package — function,
// type, method, constructor, var, and const — carries a doc comment. The
// check was introduced to cover internal/gateway's policy surface (the
// registry is the extension point contributors touch first) and holds
// repo-wide because the rest of the tree already meets it.
func TestExportedSymbolDocs(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("internal", name)
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				p := doc.New(pkg, dir, 0)
				var missing []string
				undocumented := func(label, docstr string) {
					if strings.TrimSpace(docstr) == "" {
						missing = append(missing, label)
					}
				}
				for _, f := range p.Funcs {
					undocumented(f.Name, f.Doc)
				}
				for _, ty := range p.Types {
					undocumented(ty.Name, ty.Doc)
					for _, m := range ty.Methods {
						undocumented(ty.Name+"."+m.Name, m.Doc)
					}
					for _, fn := range ty.Funcs {
						undocumented(fn.Name, fn.Doc)
					}
				}
				// Vars and consts document per declaration group: a group
				// comment (or per-spec comments inside it) covers its names.
				for _, v := range p.Vars {
					if strings.TrimSpace(v.Doc) == "" && exportedUncommented(v.Decl) {
						missing = append(missing, v.Names...)
					}
				}
				for _, c := range p.Consts {
					if strings.TrimSpace(c.Doc) == "" && exportedUncommented(c.Decl) {
						missing = append(missing, c.Names...)
					}
				}
				if len(missing) > 0 {
					t.Fatalf("package %s: exported symbols without doc comments: %s",
						name, strings.Join(missing, ", "))
				}
			}
		})
	}
}

// exportedUncommented reports whether a var/const declaration group exports
// a name whose value spec carries no comment of its own.
func exportedUncommented(decl *ast.GenDecl) bool {
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || vs.Doc != nil || vs.Comment != nil {
			continue
		}
		for _, n := range vs.Names {
			if ast.IsExported(n.Name) {
				return true
			}
		}
	}
	return false
}

// packageDoc parses the directory (comments only) and returns its
// non-test package's documentation comment.
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		// PackageClauseOnly keeps the doc comment attached to each file's
		// package clause; take the first file that has one (gofmt keeps a
		// single canonical doc file per package).
		var files []*ast.File
		for _, f := range pkg.Files {
			files = append(files, f)
		}
		p := doc.New(pkg, dir, doc.AllDecls)
		if strings.TrimSpace(p.Doc) != "" {
			return p.Doc
		}
		for _, f := range files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return f.Doc.Text()
			}
		}
	}
	return ""
}

// unusedExportAllowlist names the exported internal/ funcs and methods that
// TestNoUnusedExports accepts without a non-test use, keyed "pkg.Recv.Name"
// (or "pkg.Name" for functions), each with the reason it stays.
var unusedExportAllowlist = map[string]string{
	"autoscale.ParsePolicyConfig":         "FuzzAutoscalePolicyConfig decodes its inputs with it to drive live NewFromConfig and Policy.Target",
	"cluster.Cluster.Routable":            "TestScalerColdStartThenDrain observes the drain flag the scaler sets",
	"fault.Injector.Applied":              "TestMidIntensityZeroLoss and TestInjectorSkipsAbsentTargets count applied fault events",
	"fault.Injector.Skipped":              "TestInjectorSkipsAbsentTargets counts fault events with no target",
	"gpu.Device.FreeThreads":              "TestWaveCoalescingGolden and TestRandomLoadInvariants record free SM capacity",
	"gpu.Device.ResidentBlocks":           "TestWaveCoalescingGolden and TestRandomLoadInvariants record resident blocks",
	"gpu.Device.TotalQueued":              "TestGatedKeepsQueuesShallow bounds hardware-queue occupancy from internal/core",
	"sched.PaellaPolicy.EffectiveDeficit": "FuzzSchedPolicy and the deficit tests observe per-client fairness state",
	"sim.Timer.Stopped":                   "TestCancel and TestArenaRecycles check the cancellation parity protocol",
	"trace.Recorder.SeriesKeys":           "TestTraceContent (internal/serving) lists the recorded counter series",
	"vram.Manager.KVBlocks":               "llm and cluster PD tests check KV pages are released",
	"vram.Manager.PressureBlocks":         "TestVRAMPressureEvictsAndReleases (internal/core) checks pressure is released",
	"workload.WriteNDJSON":                "TestNDJSONRoundTrip writes the traces that live ReadNDJSON loads",
	"workload.byteReader.Read":            "io.Reader, called by encoding/json",
}

// TestNoUnusedExports guards against dead exported API: every exported func
// or method declared in a non-test file under internal/ must be named
// somewhere in the non-test code of the root module or perfbench/ — as an
// identifier or selector outside its own declaration. The scan is by name,
// so a use of any same-named symbol counts; what it catches is a name that
// appears nowhere but its declaration and tests. Exceptions live in
// unusedExportAllowlist with a one-line reason.
func TestNoUnusedExports(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				// Method names in an interface type are declarations; walk
				// only their signatures.
				for _, m := range n.Methods.List {
					ast.Inspect(m.Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							used[id.Name] = true
						}
						return true
					})
				}
				return false
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	baseName := func(key string) string { return key[strings.LastIndex(key, ".")+1:] }
	var dead []string
	exported := map[string]bool{}
	for _, d := range decls {
		exported[d.key] = true
		if _, ok := unusedExportAllowlist[d.key]; !ok && !used[baseName(d.key)] {
			dead = append(dead, fmt.Sprintf("%s (%s:%d)", d.key, d.pos.Filename, d.pos.Line))
		}
	}
	for key := range unusedExportAllowlist {
		if !exported[key] {
			t.Errorf("allowlist entry %s names no exported internal func or method", key)
		} else if used[baseName(key)] {
			t.Errorf("allowlist entry %s is used outside tests; drop the entry", key)
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Fatalf("%d exported internal funcs/methods are never used outside tests; delete them or allowlist with a reason:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}

// recvTypeName returns a method receiver's base type name.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
