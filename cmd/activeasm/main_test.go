package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceGolden pins `activeasm -trace prog.s -args 1,2,3,4` on every
// example program, and on testdata's FORK program, to its golden output:
// the per-slot trace (clone slots included, in execution order), the
// deployed mutant and every output. Regenerate a golden file with
// `go run ./cmd/activeasm -trace prog.s -args 1,2,3,4 > cmd/activeasm/testdata/prog.golden`
// only for a change meant to alter what the trace shows.
func TestTraceGolden(t *testing.T) {
	progs, err := filepath.Glob("../../examples/programs/*.s")
	if err != nil {
		t.Fatal(err)
	}
	extra, err := filepath.Glob("testdata/*.s")
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, extra...)
	if len(progs) < 8 {
		t.Fatalf("found %d programs, want the seven examples and testdata/fork.s", len(progs))
	}
	for _, path := range progs {
		name := strings.TrimSuffix(filepath.Base(path), ".s")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			runTrace(&got, load(path), "1,2,3,4", true)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("trace differs from testdata/%s.golden:\n--- got\n%s--- want\n%s", name, got.Bytes(), want)
			}
		})
	}
}
