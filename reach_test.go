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
	"slices"
	"sort"
	"strings"
	"testing"
)

// The reachability gate: every non-test function in the module must be
// reachable from a main the repo ships (cmd/*, bench/), or be on reachAllow
// with the reason it stays. The use graph is function-level rapid type
// analysis: any reference to a function or method is an edge; a method called
// through an interface (module or stdlib) reaches every concrete method of
// that name whose receiver type some reached function constructs (a composite
// literal, new, make, a conversion, a typed constant or a zero-valued var —
// and a constructed struct or array constructs the values it holds);
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
	"internal/alloc.BlockRange.overlaps":         "test oracle: TestNoOverlapProperty and assertNoOverlap check region disjointness with it",

	// Paper ISA and hardening features that only tests exercise.
	"internal/runtime.Runtime.SetMirrorSession":   "paper ISA: FORK's clone session table (runtime and testbed tests)",
	"internal/runtime.Runtime.ClearMirrorSession": "paper ISA: FORK's clone session table (runtime commit tests)",
	"internal/runtime.Runtime.SetPrivilege":       "hardening: per-FID privilege mask over forwarding opcodes (runtime tests)",

	// The delay + jitter injector the link-fault model's reordering builds on
	// (Apply reaches netsim.Port.SetExtraDelay); no library scenario arms it
	// yet, chaos tests do.
	"internal/chaos.LinkDelay.Name":   "link-fault model: delay + jitter injector (chaos tests)",
	"internal/chaos.LinkDelay.Apply":  "link-fault model: delay + jitter injector (chaos tests)",
	"internal/chaos.LinkDelay.Revert": "link-fault model: delay + jitter injector (chaos tests)",

	// Observation accessors read by tests other than their own unit test.
	"internal/rmt.TCAM.Used":                     "accessor: rmt and runtime tests balance TCAM accounting",
	"internal/telemetry.FlightRecorder.Recorded": "accessor: runtime and telemetry tests",
	"internal/chaos.TraceString":                 "accessor: chaos and testbed tests compare fired-event traces",
	"internal/guard.Guard.Port":                  "accessor: guard tests read port-attributed ledgers",
	"internal/guard.PortLedger.Count":            "accessor: guard tests read port-attributed ledgers",
	"internal/netsim.Port.Down":                  "accessor: chaos and netsim tests",
	"internal/netsim.Port.DownTransitions":       "accessor: fabric health test counts link flaps",
	"internal/fabric.Fabric.LinkUp":              "accessor: fabric health tests read the routing verdict",
	"internal/apps.MemSync.Outstanding":          "accessor: testbed memsync tests wait on it",
	"internal/baseline.NetVRMAllocator.Release":  "accessor: the page model's free path, exercised by its no-overlap and coalescing properties",
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
	name   string // "internal/alloc.Allocator.Release", the allow-list key
	pos    token.Position
	main   bool            // main of a main package, an init, or a stdlib-called method
	recv   *types.TypeName // a method's receiver type; nil for a function
	method string          // a method's name
	uses   []*types.Func   // functions and concrete methods referenced
	iface  map[string]bool // method names called through an interface
	makes  []types.Type    // types whose values the body constructs
}

// reachTree parses and type-checks every package under a module root
// (including bench/, read-only, as one more main), resolving module imports
// to the tree and everything else through the source importer.
type reachTree struct {
	fset   *token.FileSet
	std    types.Importer
	module string            // module path: "activermt"
	dirs   map[string]string // import path → directory
	pkgs   map[string]*types.Package
	funcs  map[*types.Func]*reachFunc
	roots  reachFunc // package-level initialisers, one pseudo-function
}

// loadReachTree type-checks every package with non-test Go files under root,
// the directory of module.
func loadReachTree(root, module string) (*reachTree, error) {
	rt := &reachTree{fset: token.NewFileSet(), module: module, dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		funcs: map[*types.Func]*reachFunc{}, roots: reachFunc{iface: map[string]bool{}}}
	rt.std = importer.ForCompiler(rt.fset, "source", nil)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name[0] == '.' || name == "testdata" || name == "results") {
			return filepath.SkipDir
		}
		src, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range src {
			if !strings.HasSuffix(f, "_test.go") {
				rel, _ := filepath.Rel(root, path)
				rt.dirs[module+"/"+filepath.ToSlash(rel)] = path
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range rt.dirs {
		if _, err := rt.Import(p); err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
	}
	return rt, nil
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
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: rt}).Check(path, rt.fset, files, info)
	if err != nil {
		return nil, err
	}
	rt.pkgs[path] = pkg
	short := strings.TrimPrefix(path, rt.module+"/")
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
					rf.recv, rf.method = t.(*types.Named).Obj(), d.Name.Name
					rf.name = short + "." + rf.recv.Name() + "." + d.Name.Name
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

// collect records every function n references — a concrete function or
// method by object, an interface method by name — and every type whose
// values it constructs.
func (rf *reachFunc) collect(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			rf.makes = append(rf.makes, info.Types[n].Type)
		case *ast.CallExpr:
			switch fun := info.Types[n.Fun]; {
			case fun.IsType(): // conversion
				rf.makes = append(rf.makes, fun.Type)
			case fun.IsBuiltin() && len(n.Args) > 0: // new(T), make([]T, n)
				if arg := info.Types[n.Args[0]]; arg.IsType() {
					t := arg.Type
					if sl, ok := t.Underlying().(*types.Slice); ok {
						t = sl.Elem()
					}
					rf.makes = append(rf.makes, t)
				}
			}
		case *ast.ValueSpec: // var x T: a zero value
			if n.Type != nil && len(n.Values) == 0 {
				rf.makes = append(rf.makes, info.Types[n.Type].Type)
			}
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case *types.Const:
				rf.makes = append(rf.makes, obj.Type())
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					rf.iface[obj.Name()] = true
				} else {
					rf.uses = append(rf.uses, obj.Origin())
				}
			}
		}
		return true
	})
}

// reached walks the use graph from the mains, the package-level initialisers
// and extra. An interface call reaches a method of that name only once some
// reached function constructs the method's receiver type, whichever of the
// two the walk meets first.
func (rt *reachTree) reached(extra map[string]bool) map[*reachFunc]bool {
	byName := map[string][]*reachFunc{}          // concrete methods by method name
	byRecv := map[*types.TypeName][]*reachFunc{} // concrete methods by receiver type
	var work []*reachFunc
	for _, rf := range rt.funcs {
		if rf.recv != nil {
			byName[rf.method] = append(byName[rf.method], rf)
			byRecv[rf.recv] = append(byRecv[rf.recv], rf)
		}
		if rf.main || extra[rf.name] {
			work = append(work, rf)
		}
	}
	seen := map[*reachFunc]bool{}
	ifaceSeen := map[string]bool{}
	made := map[types.Type]bool{}
	madeNamed := map[*types.TypeName]bool{}
	// construct marks t's values constructed, with every value they hold,
	// and queues the methods of a newly constructed named type that an
	// interface call already reached.
	var construct func(t types.Type)
	construct = func(t types.Type) {
		if t == nil || made[t] {
			return
		}
		made[t] = true
		switch u := t.(type) {
		case *types.Named:
			if tn := u.Origin().Obj(); !madeNamed[tn] {
				madeNamed[tn] = true
				for _, m := range byRecv[tn] {
					if ifaceSeen[m.method] {
						work = append(work, m)
					}
				}
			}
			construct(u.Underlying())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				construct(u.Field(i).Type())
			}
		case *types.Array:
			construct(u.Elem())
		}
	}
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
		for _, t := range rf.makes {
			construct(t)
		}
		for name := range rf.iface {
			if !ifaceSeen[name] {
				ifaceSeen[name] = true
				for _, m := range byName[name] {
					if madeNamed[m.recv] {
						work = append(work, m)
					}
				}
			}
		}
	}
	return seen
}

// unreachable returns, sorted, what neither a main nor an allow-list entry
// reaches, and reports allow-list entries a main reaches or that name no
// function.
func (rt *reachTree) unreachable(t *testing.T, allowList map[string]string) []string {
	allow := map[string]bool{}
	for name := range allowList {
		allow[name] = true
	}
	fromMains, withAllow := rt.reached(nil), rt.reached(allow)
	var dead []string
	for _, rf := range rt.funcs {
		_, listed := allowList[rf.name]
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
	return dead
}

func TestEveryFunctionIsReachable(t *testing.T) {
	rt, err := loadReachTree(".", "activermt")
	if err != nil {
		t.Fatal(err)
	}
	for name, reason := range reachAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
	}
	if len(reachAllow) > 50 {
		t.Errorf("allow-list has %d entries, want <= 50", len(reachAllow))
	}
	dead := rt.unreachable(t, reachAllow)
	for _, d := range dead {
		t.Errorf("%s: no main reaches it and it is not on the allow-list", d)
	}
	t.Logf("%d functions in %d packages, %d allow-listed, %d unreachable", len(rt.funcs), len(rt.pkgs), len(reachAllow), len(dead))
}

// TestReachGateNeedsAConstructedReceiver: a main that calls Apply through an
// interface reaches the Apply of the injector it constructs, not the Apply of
// an injector nothing constructs — nor what only that Apply calls.
func TestReachGateNeedsAConstructedReceiver(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module m\n",
		"cmd/sim/main.go": `package main

import "m/chaos"

func main() { chaos.Run(chaos.Loss{}) }
`,
		"chaos/chaos.go": `package chaos

type Injector interface{ Apply() }

func Run(i Injector) { i.Apply() }

type Loss struct{}

func (Loss) Apply() {}

type Stall struct{}

func (Stall) Apply() { wedge() }

func wedge() {}
`,
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := loadReachTree(root, "m")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range rt.unreachable(t, nil) {
		got = append(got, d[strings.LastIndex(d, " ")+1:])
	}
	if want := []string{"chaos.Stall.Apply", "chaos.wedge"}; !slices.Equal(got, want) {
		t.Fatalf("unreachable = %v, want %v", got, want)
	}
	if dead := rt.unreachable(t, map[string]string{"chaos.Stall.Apply": "kept"}); len(dead) != 0 {
		t.Fatalf("an allow-listed Apply still leaves %v unreachable", dead)
	}
}
