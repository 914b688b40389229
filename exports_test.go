package securitykg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
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
}

// unreferencedAllowed are exported names under internal/ that only tests
// call, each kept for the reason given.
var unreferencedAllowed = map[string]string{
	"graph.Store.SaveBinary":  "the persistence oracle compares its bytes with files the pre-slab commit wrote",
	"ner.NewFromModel":        "builds an extractor from a fixed model, so extraction tests skip training",
	"crf.Model.MarginalProbs": "the string-keyed oracle test checks the decoder's marginals through it",
	"cypher.MapValue":         "builds map values for the value-encoding tests",
	"embed.Embeddings.Vector": "the embedding tests read trained vectors through it",
}

// TestNoUnreferencedExports fails when a package under internal/ declares
// an exported function, method or type whose name no non-test .go file in
// the module references (cmd/, examples/ and bench/ count as callers). Such a
// declaration is code only its own tests run; delete it with them, or
// name it in unreferencedAllowed with the reason it stays.
func TestNoUnreferencedExports(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct{ key, pos string }
	var decls []decl
	forEachSourceFile(t, fset, func(path string, f *ast.File) {
		declNames := map[*ast.Ident]bool{}
		inInternal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declare := func(key string, id *ast.Ident) {
			declNames[id] = true
			if inInternal && id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + key, fset.Position(id.Pos()).String()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					declare(ts.Name.Name, ts.Name)
				}
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name.Name, d.Name)
					continue
				}
				// A method's receiver names its own type, not a use of it.
				recv := recvIdent(d.Recv.List[0].Type)
				declNames[recv] = true
				if stdlibMethods[d.Name.Name] {
					declNames[d.Name] = true
					continue
				}
				declare(recv.Name+"."+d.Name.Name, d.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
	})
	var dead []string
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if used[name] {
			continue
		}
		if _, ok := unreferencedAllowed[d.key]; ok {
			continue
		}
		dead = append(dead, d.key+" ("+d.pos+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported, but no non-test code references it", d)
	}
	for key := range unreferencedAllowed {
		if used[key[strings.LastIndexByte(key, '.')+1:]] {
			t.Errorf("%s is referenced by non-test code: drop it from unreferencedAllowed", key)
		}
	}
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
// it stays. Like TestNoUnreferencedExports it goes by name, so a key or
// assignment of the same name elsewhere counts as a setter.
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
