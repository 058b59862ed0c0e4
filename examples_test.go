package dphsrc_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExamplesUseFacadeOnly pins the examples to the public API: each
// program under examples/ is what a downstream user can write, and a
// downstream module cannot import this module's internal packages. An
// example that needs an internal import means the facade lacks a name.
func TestExamplesUseFacadeOnly(t *testing.T) {
	const internal = "github.com/dphsrc/dphsrc/internal/"
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(p, internal) {
				t.Errorf("%s imports %s; examples must use the dphsrc facade alone", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under examples/")
	}
}
