package main

import (
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
func TestInvariantTableNamesRealTests(t *testing.T) {
	doc, err := os.ReadFile("docs/invariants.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`((?:Test|Fuzz)[A-Za-z0-9_]+)`")
	rows, untested := 0, 0
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") || strings.TrimSpace(cells[1]) == "ID" {
			continue
		}
		id, tests, where := strings.TrimSpace(cells[1]), strings.TrimSpace(cells[3]), strings.Trim(strings.TrimSpace(cells[4]), "`")
		rows++
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
}
