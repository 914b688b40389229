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
// an exported function or method whose name no non-test .go file in the
// module references (cmd/, examples/ and bench/ count as callers). Such a
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
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !inInternal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fd.Recv != nil {
				if stdlibMethods[fd.Name.Name] {
					continue
				}
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, fset.Position(fd.Pos()).String()})
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

// recvName is the type name of a method receiver: T for T, *T and T[P].
func recvName(e ast.Expr) string {
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
