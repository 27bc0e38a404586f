package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestInvariantTableNamesRealTests parses the guarantee tables of
// docs/invariants.md and fails when a test a row names does not exist in the
// package the row names — a renamed or deleted test must take its row along.
// Rows whose Tests cell is "—" are the documented work list, not an error.
// It also holds the runtime checks to the table: a non-test `Row: "<ID>"`
// literal must name a row, and the package a row's Checked-by cell names
// must hold a literal for that row.
func TestInvariantTableNamesRealTests(t *testing.T) {
	doc, err := os.ReadFile("docs/invariants.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`((?:Test|Fuzz)[A-Za-z0-9_]+)`")
	literals := rowLiterals(t)
	ids := map[string]bool{}
	rows, untested := 0, 0
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 7 || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") || strings.TrimSpace(cells[1]) == "ID" {
			continue
		}
		id, tests, where := strings.TrimSpace(cells[1]), strings.TrimSpace(cells[3]), strings.Trim(strings.TrimSpace(cells[4]), "`")
		rows++
		ids[id] = true
		if by := strings.Trim(strings.TrimSpace(cells[5]), "`"); by != "—" {
			pkg, _, _ := strings.Cut(by, ".")
			if dir := filepath.Join("internal", pkg); !literals[id][dir] {
				t.Errorf("row %s is checked by %s, but %s has no Row: %q literal", id, by, dir, id)
			}
		}
		if tests == "—" {
			untested++
			continue
		}
		names := name.FindAllStringSubmatch(tests, -1)
		if len(names) == 0 {
			t.Errorf("row %s names no test and is not marked —", id)
		}
		files, _ := filepath.Glob(filepath.Join(where, "*_test.go"))
		var src strings.Builder
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src.Write(b)
		}
		for _, m := range names {
			if !strings.Contains(src.String(), "\nfunc "+m[1]+"(") {
				t.Errorf("row %s: %s does not exist in %s", id, m[1], where)
			}
		}
	}
	if rows < 10 || untested == rows {
		t.Fatalf("parsed %d rows (%d untested) from docs/invariants.md: the table format changed under the parser", rows, untested)
	}
	for id, dirs := range literals {
		if !ids[id] {
			t.Errorf("Row: %q in %v names no row of docs/invariants.md", id, dirs)
		}
	}
}

// rowLiterals maps each ID a non-test `Row: "<ID>"` literal in the module
// names to the package directories that hold it.
func rowLiterals(t *testing.T) map[string]map[string]bool {
	lit := regexp.MustCompile(`Row:\s*"([^"]*)"`)
	out := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		for _, m := range lit.FindAllStringSubmatch(string(b), -1) {
			if out[m[1]] == nil {
				out[m[1]] = map[string]bool{}
			}
			out[m[1]][filepath.Dir(path)] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
