package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability gate: every non-test function in the module must be
// reachable from a main the repo ships (cmd/*, bench/), or be on reachAllow
// with the reason it stays. The use graph is function-level and conservative:
// any reference to a function or method is an edge, a method reached through
// an interface (module or stdlib) reaches every concrete method of that name,
// package-level initialisers and every init are roots, and the methods the
// standard library calls through its own interfaces (reachStdlibCalled) are
// roots too.

// reachAllow names what no main reaches and stays anyway, by rule. Three
// reasons qualify: a reference implementation (or the switch that selects it)
// that a differential compares the system path against; a paper ISA or
// hardening feature that only tests exercise; an observation accessor that
// tests other than its own unit test read. Entries are roots of the walk, so
// what only they call needs no entry of its own.
var reachAllow = map[string]string{
	// Reference implementations, the switches that select them, and test oracles.
	"internal/runtime.Runtime.SetSpecialization": "reference switch: forces the interpreter the differentials compare the compiled plan against",
	"internal/rmt.Device.Exec":                   "reference implementation: the allocating interpreter that rmt and runtime tests pin instruction semantics with (incl. FORK)",
	"internal/apps.Programs":                     "reference catalogue: TestDifferentialRegisteredApps runs every shipped template through interpreter and plan",
	"internal/secapps.Programs":                  "reference catalogue: TestDifferentialRegisteredApps and TestProgramShapes",
	"internal/packet.Active.Encode":              "reference encoder: packet round-trip and fuzz tests and the root codec benchmark compare decode against it",
	"internal/packet.DecodeCached":               "reference decode with a retained Active: the progcache tests observe cache behaviour through it",
	"internal/alloc.BlockRange.overlaps":         "test oracle: TestNoOverlapProperty and assertNoOverlap check region disjointness with it",

	// Paper ISA and hardening features that only tests exercise.
	"internal/runtime.Runtime.SetMirrorSession":   "paper ISA: FORK's clone session table (runtime and testbed tests)",
	"internal/runtime.Runtime.ClearMirrorSession": "paper ISA: FORK's clone session table (runtime commit tests)",
	"internal/runtime.Runtime.SetPrivilege":       "hardening: per-FID privilege mask over forwarding opcodes (runtime tests)",

	// Observation accessors read by tests other than their own unit test.
	"internal/rmt.TCAM.Lookup":                   "accessor: rmt and runtime tests probe protection ranges",
	"internal/rmt.TCAM.Used":                     "accessor: rmt and runtime tests balance TCAM accounting",
	"internal/telemetry.FlightRecorder.Recorded": "accessor: runtime and telemetry tests",
	"internal/chaos.TraceString":                 "accessor: chaos and testbed tests compare fired-event traces",
	"internal/guard.Guard.Audit":                 "accessor: guard and testbed tests run the isolation audit through the guard's counters",
	"internal/guard.Guard.Policy":                "accessor: testbed adversary test reads the thresholds it drives against",
	"internal/guard.Guard.Port":                  "accessor: guard tests read port-attributed ledgers",
	"internal/guard.PortLedger.Count":            "accessor: guard tests read port-attributed ledgers",
	"internal/netsim.Port.Down":                  "accessor: chaos and netsim tests",
	"internal/netsim.Port.DownTransitions":       "accessor: fabric health test counts link flaps",
	"internal/fabric.Fabric.LinkUp":              "accessor: fabric health tests read the routing verdict",
	"internal/apps.MemSync.Outstanding":          "accessor: testbed memsync tests wait on it",
	"internal/switchd.Controller.Alive":          "accessor: fabric restart-recovery test",
	"internal/switchd.Controller.Stalled":        "accessor: chaos controller-stall test",
	"internal/baseline.NetVRMAllocator.Release":  "accessor: the page model's free path, exercised by its no-overlap and coalescing properties",
	"internal/packet.ProgCache.Contains":         "accessor: TestProgCacheCanonicalPointer",
	"internal/alloc.Allocator.ElasticTotals":     "accessor: the fairness population, read by TestElasticSharingAndFairness and TestReleaseExpandsNeighbors",
	"internal/workload.Sequence.Resident":        "accessor: workload arrival/departure and Poisson-epoch tests",
}

// Methods the standard library calls through interfaces the walk cannot see
// into (fmt, sort, container/heap, flag, encoding, net/http).
var reachStdlibCalled = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Set": true, "MarshalText": true, "UnmarshalText": true, "ServeHTTP": true,
}

// reachFunc is one declared function: what its body references.
type reachFunc struct {
	name  string // "internal/alloc.Allocator.Release", the allow-list key
	pos   token.Position
	main  bool            // main of a main package, an init, or a stdlib-called method
	uses  []*types.Func   // functions and concrete methods referenced
	iface map[string]bool // method names called through an interface
}

// reachTree parses and type-checks every package under the module root plus
// bench/ (read-only, as one more main), resolving activermt/... imports to
// the tree and everything else through the source importer.
type reachTree struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	funcs map[*types.Func]*reachFunc
	roots reachFunc // package-level initialisers, one pseudo-function
}

func (rt *reachTree) Import(path string) (*types.Package, error) {
	if _, ok := rt.dirs[path]; !ok {
		return rt.std.Import(path)
	}
	if p, ok := rt.pkgs[path]; ok {
		return p, nil
	}
	return rt.check(path)
}

func (rt *reachTree) check(path string) (*types.Package, error) {
	dir := rt.dirs[path]
	parsed, err := parser.ParseDir(rt.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: rt}).Check(path, rt.fset, files, info)
	if err != nil {
		return nil, err
	}
	rt.pkgs[path] = pkg
	short := strings.TrimPrefix(path, "activermt/")
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name].(*types.Func)
				rf := &reachFunc{name: short + "." + d.Name.Name, pos: rt.fset.Position(d.Pos()), iface: map[string]bool{}}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					rf.name = short + "." + t.(*types.Named).Obj().Name() + "." + d.Name.Name
					rf.main = reachStdlibCalled[d.Name.Name]
				} else {
					rf.main = d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main"
				}
				rt.funcs[fn] = rf
				if d.Body != nil {
					rf.collect(d.Body, info)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					rt.roots.collect(d, info)
				}
			}
		}
	}
	return pkg, nil
}

// collect records every function n references: a concrete function or method
// by object, an interface method by name.
func (rf *reachFunc) collect(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			rf.iface[fn.Name()] = true
		} else {
			rf.uses = append(rf.uses, fn.Origin())
		}
		return true
	})
}

// reached walks the use graph from the mains, the package-level initialisers
// and extra.
func (rt *reachTree) reached(extra map[string]bool) map[*reachFunc]bool {
	byName := map[string][]*reachFunc{} // concrete methods by method name
	var work []*reachFunc
	for fn, rf := range rt.funcs {
		if fn.Type().(*types.Signature).Recv() != nil {
			byName[fn.Name()] = append(byName[fn.Name()], rf)
		}
		if rf.main || extra[rf.name] {
			work = append(work, rf)
		}
	}
	seen := map[*reachFunc]bool{}
	ifaceSeen := map[string]bool{}
	work = append(work, &rt.roots)
	for len(work) > 0 {
		rf := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[rf] {
			continue
		}
		seen[rf] = true
		for _, fn := range rf.uses {
			if callee, ok := rt.funcs[fn]; ok {
				work = append(work, callee)
			}
		}
		for name := range rf.iface {
			if !ifaceSeen[name] {
				ifaceSeen[name] = true
				work = append(work, byName[name]...)
			}
		}
	}
	return seen
}

func TestEveryFunctionIsReachable(t *testing.T) {
	rt := &reachTree{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		funcs: map[*types.Func]*reachFunc{}, roots: reachFunc{iface: map[string]bool{}}}
	rt.std = importer.ForCompiler(rt.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata" || name == "results") {
			return filepath.SkipDir
		}
		src, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range src {
			if !strings.HasSuffix(f, "_test.go") {
				rt.dirs["activermt/"+filepath.ToSlash(path)] = path
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range rt.dirs {
		if _, err := rt.Import(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}

	allow := map[string]bool{}
	for name, reason := range reachAllow {
		allow[name] = true
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
	}
	if len(reachAllow) > 50 {
		t.Errorf("allow-list has %d entries, want <= 50", len(reachAllow))
	}
	fromMains, withAllow := rt.reached(nil), rt.reached(allow)
	var dead []string
	for _, rf := range rt.funcs {
		_, listed := reachAllow[rf.name]
		delete(allow, rf.name)
		switch {
		case listed && fromMains[rf]:
			t.Errorf("allow-list entry %s is reachable from a main: drop the entry", rf.name)
		case !withAllow[rf]:
			dead = append(dead, fmt.Sprintf("%s:%d %s", rf.pos.Filename, rf.pos.Line, rf.name))
		}
	}
	for name := range allow {
		t.Errorf("allow-list entry %s names no function in the tree", name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no main reaches it and it is not on the allow-list", d)
	}
	t.Logf("%d functions in %d packages, %d allow-listed, %d unreachable", len(rt.funcs), len(rt.pkgs), len(reachAllow), len(dead))
}
