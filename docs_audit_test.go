// Repository audits that used to live in ci.sh as shell loops: every
// package carries a godoc package comment, and every file under docs/
// is reachable from README.md or DESIGN.md by relative markdown links.
package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryPackageHasDocComment walks the module the way `go list
// ./...` does (skipping testdata and dot- or underscore-prefixed
// directories) and requires, in every directory holding Go files, at
// least one file whose package clause carries a doc comment starting
// "Package " or "Command " — the convention godoc renders and
// docs/OBSERVABILITY.md links into.
func TestEveryPackageHasDocComment(t *testing.T) {
	dirs := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil || len(files) == 0 {
			return err
		}
		dirs++
		for _, f := range files {
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				return err
			}
			if doc := file.Doc.Text(); strings.HasPrefix(doc, "Package ") || strings.HasPrefix(doc, "Command ") {
				return nil
			}
		}
		t.Errorf("missing package doc comment in %s", path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dirs == 0 {
		t.Fatal("found no Go package directories")
	}
}

// mdLink matches the target of a markdown link or image, "](target)".
var mdLink = regexp.MustCompile(`\]\(([^)]+)\)`)

// TestDocsReachableFromReadme follows relative markdown links
// transitively from README.md and DESIGN.md and requires every file
// under docs/ to be reached, so no document or archived result can go
// orphaned.
func TestDocsReachableFromReadme(t *testing.T) {
	reached := map[string]bool{}
	queue := []string{"README.md", "DESIGN.md"}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if reached[f] {
			continue
		}
		reached[f] = true
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			p := filepath.Clean(filepath.Join(filepath.Dir(f), target))
			if st, err := os.Stat(p); err == nil && st.Mode().IsRegular() {
				queue = append(queue, p)
			}
		}
	}
	docs := 0
	err := filepath.WalkDir("docs", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		docs++
		if !reached[path] {
			t.Errorf("%s is not reachable from README.md or DESIGN.md", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if docs == 0 {
		t.Fatal("found no files under docs/")
	}
}
