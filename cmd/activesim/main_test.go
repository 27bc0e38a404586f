package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"activermt/internal/experiments"
)

// invoke runs the command in-process.
func invoke(args string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(strings.Fields(args), &out, &errb)
	return out.String(), errb.String(), code
}

// The one line of any scenario that is not a function of its arguments: the
// ephemeral port -telemetry 127.0.0.1:0 was given.
var ephemeralPort = regexp.MustCompile(`http://127\.0\.0\.1:\d+/`)

// TestSmoke runs every narrative the repo ships: each row's fixed-seed
// smoke invocations, twice, with stdout compared byte for byte — the
// simulator is deterministic per seed, so any diff in printed output is a
// real regression.
func TestSmoke(t *testing.T) {
	for _, r := range table {
		if len(r.smoke) == 0 {
			t.Errorf("row %s has no smoke invocation", r.name)
		}
		for _, args := range r.smoke {
			t.Run(r.name+"/"+args, func(t *testing.T) {
				chdir(t, t.TempDir()) // the CSV-writing rows name relative files
				var first string
				for pass := 0; pass < 2; pass++ {
					stdout, stderr, code := invoke(args)
					if code != 0 {
						t.Fatalf("activesim %s: exit %d\n%s%s", args, code, stdout, stderr)
					}
					stdout = ephemeralPort.ReplaceAllString(stdout, "http://127.0.0.1:PORT/")
					if stdout == "" {
						t.Fatalf("activesim %s printed nothing", args)
					}
					if pass == 0 {
						first = stdout
					} else if stdout != first {
						t.Errorf("activesim %s: two runs printed different output\n--- first\n%s--- second\n%s", args, first, stdout)
					}
				}
				if ids := flagArgs(t, args); r.name == "paper" && len(ids) > 0 {
					checkPaperCSVs(t, ids)
				}
			})
		}
	}
}

// chdir is t.Chdir, which go.mod's go line predates.
func chdir(t *testing.T, dir string) {
	old, err := os.Getwd()
	if err == nil {
		err = os.Chdir(dir)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

// flagArgs returns the positional arguments of an invocation.
func flagArgs(t *testing.T, args string) []string {
	fs := newFlags(&options{})
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	return fs.Args()
}

// checkPaperCSVs asserts that the paper row wrote, for each id, exactly the
// series the experiment produces in-process at the smoke scale and seed.
func checkPaperCSVs(t *testing.T, ids []string) {
	for _, id := range ids {
		spec, _ := experiments.Lookup(id)
		want, err := spec.Run(experiments.RunConfig{Quick: true, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile("csv/" + id + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.CSV {
			t.Errorf("csv/%s.csv differs from the in-process %s result", id, id)
		}
	}
}

// A non-default value for every flag a row can reject.
var sampleValue = map[string]string{
	"seed": "2", "chaos": "flaky-link", "adversary": "", "telemetry": "127.0.0.1:0",
	"topology": "leafspine:2x1", "switches": "3", "soak": "1m", "soak-csv": "x.csv", "soak-secapps": "",
	"quick": "", "out": "x",
}

// TestFlagMisuse gives every row each flag outside its accept-list: the
// command must exit 2 naming the row, having run nothing.
func TestFlagMisuse(t *testing.T) {
	newFlags(&options{}).VisitAll(func(f *flag.Flag) {
		if _, ok := sampleValue[f.Name]; !ok && f.Name != "list" && f.Name != "scenario" {
			t.Errorf("flag -%s has no sample value in this test", f.Name)
		}
	})
	for _, r := range table {
		base := r.smoke[0]
		var o options
		if err := newFlags(&o).Parse(strings.Fields(base)); err != nil {
			t.Fatal(err)
		}
		for name, value := range sampleValue {
			if slices.Contains(strings.Fields(r.by+" "+r.flags), name) {
				continue
			}
			// A flag that selects another row for this -scenario is that
			// row's business (-soak overrides -scenario), not misuse of r.
			if slices.ContainsFunc(table, func(b scenario) bool {
				return slices.Contains(strings.Fields(b.by), name) && (b.of == "" || b.of == o.scenario)
			}) {
				continue
			}
			args := strings.TrimSpace(base + " -" + name + " " + value)
			stdout, stderr, code := invoke(args)
			if code != 2 || !strings.Contains(stderr, r.name) || !strings.Contains(stderr, "-"+name) || stdout != "" {
				t.Errorf("activesim %s: exit %d, stdout %q, stderr %q; want exit 2 naming %s and -%s",
					args, code, stdout, stderr, r.name, name)
			}
		}
	}
	// Positional arguments belong to the paper row alone.
	for _, r := range table {
		if r.args != "" {
			continue
		}
		args := r.smoke[0] + " fig8b"
		if stdout, stderr, code := invoke(args); code != 2 || !strings.Contains(stderr, r.name) || stdout != "" {
			t.Errorf("activesim %s: exit %d, stdout %q, stderr %q; want exit 2 naming %s", args, code, stdout, stderr, r.name)
		}
	}
	if _, stderr, code := invoke("-scenario paper -quick -out " + t.TempDir() + " nope"); code != 1 || !strings.Contains(stderr, `"nope"`) {
		t.Errorf("activesim -scenario paper nope: exit %d, stderr %q; want exit 1 naming the id", code, stderr)
	}
	for _, args := range []string{"-scenario nope", "-scenario cache -topology ring", "-no-such-flag"} {
		if stdout, stderr, code := invoke(args); code != 2 || stdout != "" || stderr == "" {
			t.Errorf("activesim %s: exit %d, stdout %q, stderr %q; want exit 2 and a message", args, code, stdout, stderr)
		}
	}
}
