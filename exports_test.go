package securitykg

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// stdlibMethods are method names the standard library calls through its
// interfaces (fmt.Stringer, error, json.Marshaler, http.Handler,
// sort.Interface, io.Reader and the like): no module code needs to name
// them for them to run.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "WriteTo": true, "ReadFrom": true,
	"ReadByte": true,
}

// unreferencedAllowed are exported names under internal/ that only tests
// call, each kept for the reason given.
var unreferencedAllowed = map[string]string{
	"graph.Store.SaveBinary":           "the persistence oracle compares its bytes with files the pre-slab commit wrote",
	"ner.NewFromModel":                 "builds an extractor from a fixed model, so extraction tests skip training",
	"ner.Extractor.Model":              "with NewFromModel, the ner and pipeline tests build a second extractor over one trained model",
	"crf.Model.MarginalProbs":          "the string-keyed oracle test checks the decoder's marginals through it",
	"crf.Model.Save":                   "wrote testdata/parent-model.json, the parent-model oracle's fixture, and the round-trip test saves through it",
	"crf.Load":                         "loads testdata/parent-model.json for the parent-model oracle",
	"crf.Model.Decode":                 "the crf tests and the parent-model oracle decode string-keyed sequences through it",
	"cypher.MapValue":                  "builds map values for the value-encoding tests",
	"cypher.Tx.Query":                  "the cypher tests and the module-level benchmarks run a statement inside a transaction and read its rows whole",
	"embed.Embeddings.Vector":          "the embedding tests read trained vectors through it",
	"server.New":                       "the module-level integration and durability tests build a server with the default query options",
	"relstore.Store.Count":             "the relstore, pipeline and module-level tests count a table's rows through it",
	"connector.RelConnector.Connected": "the connector and pipeline tests count the reports the relational connector took",
	"metrics.Counter.Value":            "the metrics and storage tests read counters through it",
	"search.Index.Remove":              "ROADMAP item 1's delete feed removes reports from the index through it",
}

// TestNoUnreferencedExports fails when a package under internal/ declares
// an exported function, method or type that no non-test .go file in the
// module uses (cmd/, examples/ and bench/ count as callers). Uses are
// resolved by type checking, so a use of another declaration of the same
// name does not count, and neither does a use inside the declaration
// itself: a function's own body, a type's own definition or the receiver
// of one of its methods. A method runs when a method of an interface its
// type implements is used, and a method the standard library calls
// through its interfaces (stdlibMethods) always runs. Such a declaration
// is code only its own tests run; delete it with them, or name it in
// unreferencedAllowed with the reason it stays.
func TestNoUnreferencedExports(t *testing.T) {
	fset := token.NewFileSet()
	info := typeCheckModule(t, fset)
	type decl struct {
		key, pos string
		own      []ast.Node // uses inside these do not count
		used     bool
	}
	decls := map[types.Object]*decl{}
	for ident, obj := range info.Defs {
		if obj == nil || !ident.IsExported() || obj.Parent() != obj.Pkg().Scope() && !isMethod(obj) {
			continue
		}
		switch obj.(type) {
		case *types.Var, *types.Const:
			continue
		}
		path := filepath.ToSlash(fset.Position(ident.Pos()).Filename)
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		key := obj.Pkg().Name() + "." + obj.Name()
		if isMethod(obj) {
			recv := obj.Type().(*types.Signature).Recv().Type()
			if stdlibMethods[obj.Name()] || types.IsInterface(recv) {
				continue // an interface's own method declares nothing that runs
			}
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			key = obj.Pkg().Name() + "." + recv.(*types.Named).Obj().Name() + "." + obj.Name()
		}
		decls[obj] = &decl{key: key, pos: fset.Position(ident.Pos()).String()}
	}
	// Each declaration's own extent: a function's whole declaration, a
	// type's spec and the receiver of each of its methods.
	for _, f := range info.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if dl := decls[info.Defs[ts.Name]]; dl != nil {
							dl.own = append(dl.own, ts)
						}
					}
				}
			case *ast.FuncDecl:
				if dl := decls[info.Defs[d.Name]]; dl != nil {
					dl.own = append(dl.own, d)
				}
				if d.Recv != nil {
					if dl := decls[info.Uses[recvIdent(d.Recv.List[0].Type)]]; dl != nil {
						dl.own = append(dl.own, d.Recv)
					}
				}
			}
		}
	}
	var ifaceMethods []*types.Func // interface methods some code uses
	for ident, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods = append(ifaceMethods, fn)
			}
		}
		d := decls[obj]
		if d == nil || d.used {
			continue
		}
		d.used = !slices.ContainsFunc(d.own, func(n ast.Node) bool { return n.Pos() <= ident.Pos() && ident.Pos() < n.End() })
	}
	for obj, d := range decls {
		if d.used || !isMethod(obj) {
			continue
		}
		recv := obj.Type().(*types.Signature).Recv().Type()
		d.used = slices.ContainsFunc(ifaceMethods, func(m *types.Func) bool {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			return m.Name() == obj.Name() && types.Implements(recv, iface)
		})
	}
	var dead []string
	keys := map[string]bool{}
	for _, d := range decls {
		keys[d.key] = true
		_, allowed := unreferencedAllowed[d.key]
		switch {
		case d.used && allowed:
			t.Errorf("%s is used by non-test code: drop it from unreferencedAllowed", d.key)
		case !d.used && !allowed:
			dead = append(dead, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported, but no non-test code uses it", d)
	}
	for key := range unreferencedAllowed {
		if !keys[key] {
			t.Errorf("%s is in unreferencedAllowed but declares nothing: drop it", key)
		}
	}
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// moduleInfo is what type checking the module's non-test files records:
// the files and, for each of their identifiers, the object it declares or
// uses.
type moduleInfo struct {
	*types.Info
	files []*ast.File
}

// typeCheckModule type-checks every package of the module from its
// non-test files (forEachSourceFile's), importing the standard library
// from its export data.
func typeCheckModule(t *testing.T, fset *token.FileSet) moduleInfo {
	t.Helper()
	mod := moduleInfo{Info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	byPath := map[string][]*ast.File{}
	forEachSourceFile(t, fset, func(path string, f *ast.File) {
		importPath := "securitykg"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			importPath += "/" + dir
		}
		byPath[importPath] = append(byPath[importPath], f)
		mod.files = append(mod.files, f)
	})
	imp := &moduleImporter{fset: fset, info: mod.Info, files: byPath,
		checked: map[string]*types.Package{}, std: importer.Default()}
	for path := range byPath {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return mod
}

// moduleImporter type-checks a package of the module on its first import.
type moduleImporter struct {
	fset    *token.FileSet
	info    *types.Info
	files   map[string][]*ast.File // import path -> non-test files
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.checked[path] = pkg
	return pkg, nil
}

// forEachSourceFile parses every non-test .go file of the module (cmd/,
// examples/ and bench/ included; testdata, vendor and dot or underscore
// directories skipped) and hands it to fn with its path.
func forEachSourceFile(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
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
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recvIdent is the type name of a method receiver: T for T, *T and T[P].
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// unsetAllowed are option fields under internal/ that no non-test code
// sets, each kept for the reason given.
var unsetAllowed = map[string]string{
	"storage.Options.TailRecords": "TestFollowerCatchUpFromDisk, TestSnapshotRequired and TestTailCursorMatchesLog shrink the tail to force the log-file path",
	"storage.Options.TailBytes":   "TestFollowerCatchUpFromDisk, TestSnapshotRequired and TestTailCursorMatchesLog shrink the tail to force the log-file path",
	"pipeline.Config.Logger":      "where per-report failures are reported is ROADMAP item 4(b)'s decision",
	"crawler.Config.Logger":       "where crawl failures are reported is ROADMAP item 4(b)'s decision",
}

// TestNoUnsetOptions fails when a field of an exported ...Options or
// ...Config struct under internal/ has no setter outside tests: no
// non-test .go file in the module (cmd/, examples/ and bench/ count) uses
// its name as a composite-literal key, and none outside the declaring
// package assigns to it. A defaults method or an "if x == 0 { x = ... }"
// line in the declaring package is not a setter, and neither is an
// assignment in a package that declares an option field of the same name
// (its own defaulting, not a setter of another package's field). A field
// with a json tag is set by the configuration file. A setting nobody sets
// is a constant: make it one, or name it in unsetAllowed with the reason
// it stays. It goes by name, so a key or assignment of the same name
// elsewhere counts as a setter.
func TestNoUnsetOptions(t *testing.T) {
	fset := token.NewFileSet()
	type field struct{ key, name, dir, pos string }
	var fields []field
	keyed := map[string]bool{}               // composite-literal keys
	assigned := map[string]map[string]bool{} // field name -> directories that assign it
	var declare func(prefix, dir string, st *ast.StructType)
	declare = func(prefix, dir string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			if f.Tag != nil {
				tag, _ := strconv.Unquote(f.Tag.Value)
				if j, ok := reflect.StructTag(tag).Lookup("json"); ok && j != "-" {
					continue // set by the configuration file
				}
			}
			for _, id := range f.Names {
				if !id.IsExported() {
					continue
				}
				if sub, ok := f.Type.(*ast.StructType); ok {
					declare(prefix+id.Name+".", dir, sub)
					continue
				}
				fields = append(fields, field{prefix + id.Name, id.Name, dir, fset.Position(id.Pos()).String()})
			}
		}
	}
	forEachSourceFile(t, fset, func(path string, f *ast.File) {
		dir := filepath.Dir(path)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					name := ts.Name.Name
					if ok && ts.Name.IsExported() && (strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
						declare(f.Name.Name+"."+name+".", dir, st)
					}
				}
			}
		}
		assign := func(lhs ast.Expr) {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				if assigned[sel.Sel.Name] == nil {
					assigned[sel.Sel.Name] = map[string]bool{}
				}
				assigned[sel.Sel.Name][dir] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							keyed[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assign(lhs)
				}
			case *ast.IncDecStmt:
				assign(n.X)
			}
			return true
		})
	})
	declares := map[string]bool{} // directory + "\x00" + field name
	for _, f := range fields {
		declares[f.dir+"\x00"+f.name] = true
	}
	set := func(f field) bool {
		if keyed[f.name] {
			return true
		}
		for dir := range assigned[f.name] {
			if !declares[dir+"\x00"+f.name] {
				return true
			}
		}
		return false
	}
	var unset []string
	for _, f := range fields {
		_, allowed := unsetAllowed[f.key]
		switch {
		case set(f) && allowed:
			t.Errorf("%s is set by non-test code: drop it from unsetAllowed", f.key)
		case !set(f) && !allowed:
			unset = append(unset, f.key+" ("+f.pos+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: an option field no non-test code sets; make it a constant", u)
	}
	keys := map[string]bool{}
	for _, f := range fields {
		keys[f.key] = true
	}
	for key := range unsetAllowed {
		if !keys[key] {
			t.Errorf("%s is in unsetAllowed but declares no option field: drop it", key)
		}
	}
}
