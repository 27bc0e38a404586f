package runtime

import (
	"maps"
	"slices"
	"testing"

	"activermt/internal/alloc"
	"activermt/internal/apps"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/rmt"
	"activermt/internal/secapps"
)

// TestInstallGrantTranslatesOnlyDeclaredStages: a grant installs its
// translation entries at exactly the stages it names, each pointing at its
// access's region, and a reinstall naming other stages deletes the stale
// entries and writes the new ones, one operation each.
func TestInstallGrantTranslatesOnlyDeclaredStages(t *testing.T) {
	r := testRuntime(t)
	const fid = 5
	a0 := AccessGrant{Logical: 3, Lo: 0, Hi: 256, Xlate: []int{1, 2}}
	a1 := AccessGrant{Logical: 9, Lo: 512, Hi: 768, Xlate: []int{7}}
	if _, err := r.InstallGrant(Grant{FID: fid, Accesses: []AccessGrant{a0, a1}}); err != nil {
		t.Fatal(err)
	}
	tr0, tr1 := rmt.TranslateRegion(a0.Lo, a0.Hi), rmt.TranslateRegion(a1.Lo, a1.Hi)
	want := map[int]rmt.Translate{1: tr0, 2: tr0, 7: tr1}
	if got := tablesOf(r, fid).xlate; !maps.Equal(got, want) {
		t.Fatalf("translation entries %v, want %v", got, want)
	}

	a0.Xlate, a1.Xlate = []int{2}, []int{6, 8}
	ops, err := r.InstallGrant(Grant{FID: fid, Accesses: []AccessGrant{a0, a1}})
	if err != nil {
		t.Fatal(err)
	}
	want = map[int]rmt.Translate{2: tr0, 6: tr1, 8: tr1}
	if got := tablesOf(r, fid).xlate; !maps.Equal(got, want) {
		t.Fatalf("after reinstall: translation entries %v, want %v", got, want)
	}
	if ops != 2+2+1 { // stages 1 and 7 deleted, 6 and 8 written, the gate
		t.Errorf("reinstall = %d ops, want 5", ops)
	}

	a0.Xlate, a1.Xlate = nil, nil
	if _, err := r.InstallGrant(Grant{FID: fid, Accesses: []AccessGrant{a0, a1}}); err != nil {
		t.Fatal(err)
	}
	if got := tablesOf(r, fid).xlate; len(got) != 0 {
		t.Errorf("a grant that translates nowhere left entries %v", got)
	}
}

// TestGrantSetNamesTheMutantsTranslateStages: for every shipped program and
// every mutant of both policies, the stages Grant.Set names for each access
// are exactly the slots where the synthesized mutant executes ADDR_MASK or
// ADDR_OFFSET before that access.
func TestGrantSetNamesTheMutantsTranslateStages(t *testing.T) {
	shape := alloc.DefaultShape()
	checked := 0
	for _, p := range append(apps.Programs(), secapps.Programs()...) {
		cons, err := compiler.Extract(p, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		acc := p.MemoryAccessIndices()
		if len(acc) == 0 {
			continue
		}
		for _, pol := range []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained} {
			mutants, _, err := shape.Mutants(cons, pol)
			if err != nil {
				continue // no mutant under this policy
			}
			for _, m := range mutants {
				prog, err := compiler.Synthesize(p, acc, m)
				if err != nil {
					t.Fatalf("%s %v: %v", p.Name, m, err)
				}
				pl := &alloc.Placement{FID: 1, Mutant: m}
				for _, l := range m {
					pl.Accesses = append(pl.Accesses, alloc.AccessPlacement{Logical: l, Range: alloc.WordRange{Lo: 0, Hi: 64}})
				}
				var g Grant
				g.Set(pl, cons)
				for i, a := range g.Accesses {
					var want []int
					for l := 0; l < m[i]; l++ {
						if op := prog.Instrs[l].Op; (op == isa.OpAddrMask || op == isa.OpAddrOffset) && (i == 0 || l > m[i-1]) {
							want = append(want, l)
						}
					}
					got := slices.Clone(a.Xlate)
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("%s %v access %d: Set names stages %v, the mutant translates at %v", p.Name, m, i, got, want)
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no mutant checked")
	}
}
