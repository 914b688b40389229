package securitykg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
