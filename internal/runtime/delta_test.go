package runtime

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"activermt/internal/rmt"
)

// prefixSet is the range-to-prefix expansion of [lo, hi) as {base, size}
// entries, derived top-down over the address trie (the runtime's cost model
// walks the range bottom-up): a node inside the range is one entry, a node
// that straddles its edge splits.
func prefixSet(lo, hi uint32) map[[2]uint32]bool {
	out := map[[2]uint32]bool{}
	var walk func(base, size uint64)
	walk = func(base, size uint64) {
		switch {
		case base >= uint64(hi) || base+size <= uint64(lo):
		case base >= uint64(lo) && base+size <= uint64(hi):
			out[[2]uint32{uint32(base), uint32(size)}] = true
		default:
			walk(base, size/2)
			walk(base+size/2, size/2)
		}
	}
	walk(0, 1<<32)
	return out
}

// installedTables is everything one FID holds in the tables.
type installedTables struct {
	regions map[int]rmt.Region
	xlate   map[int]rmt.Translate
}

func tablesOf(r *Runtime, fid uint16) installedTables {
	it := installedTables{regions: r.InstalledRegions(fid), xlate: map[int]rmt.Translate{}}
	for s := 0; s < r.dev.NumStages(); s++ {
		if tr, ok := r.dev.Stage(s).TranslateFor(fid); ok {
			it.xlate[s] = tr
		}
	}
	return it
}

// editCost is what turning one FID's entries from a into b costs when only
// differing entries are touched: the symmetric difference of the prefix
// expansions, one write per new or changed translate entry, one delete per
// stale one.
func editCost(a, b installedTables, stages int) int {
	ops := 0
	for s := 0; s < stages; s++ {
		old, now := prefixSet(a.regions[s].Lo, a.regions[s].Hi), prefixSet(b.regions[s].Lo, b.regions[s].Hi)
		for p := range old {
			if !now[p] {
				ops++
			}
		}
		for p := range now {
			if !old[p] {
				ops++
			}
		}
		oldTr, had := a.xlate[s]
		if nowTr, has := b.xlate[s]; has != had || (has && oldTr != nowTr) {
			ops++
		}
	}
	return ops
}

// randomGrant draws a grant of one to three accesses in distinct physical
// stages, each translating in a random subset of the stages before it.
func randomGrant(rng *rand.Rand, fid uint16, stages, words int) Grant {
	g := Grant{FID: fid}
	prev, logical := -1, rng.Intn(4)
	for i, n := 0, 1+rng.Intn(3); i < n && logical < stages; i++ {
		lo := uint32(rng.Intn(words - 64))
		g.Accesses = append(g.Accesses, AccessGrant{Logical: logical, Lo: lo, Hi: lo + 1 + uint32(rng.Intn(min(2048, words-int(lo)-1))),
			Xlate: randomXlate(rng, prev, logical)})
		prev, logical = logical, logical+1+rng.Intn(5)
	}
	return g
}

// randomXlate draws translate stages for an access at logical that follows
// one at prev: a random subset of the four stages before it, none at or
// before prev.
func randomXlate(rng *rand.Rand, prev, logical int) []int {
	var out []int
	for l := max(prev+1, logical-4); l < logical; l++ {
		if rng.Intn(2) == 0 {
			out = append(out, l)
		}
	}
	return out
}

// sameAccesses reports whether two grants place and translate alike.
func sameAccesses(a, b []AccessGrant) bool {
	return slices.EqualFunc(a, b, func(x, y AccessGrant) bool {
		return x.Logical == y.Logical && x.Lo == y.Lo && x.Hi == y.Hi && slices.Equal(x.Xlate, y.Xlate)
	})
}

// editGrant derives the next grant of a FID from the one it holds: the
// shapes a reallocation produces.
func editGrant(rng *rand.Rand, g Grant, stages, words int) Grant {
	next := Grant{FID: g.FID, Accesses: slices.Clone(g.Accesses)}
	i := rng.Intn(len(next.Accesses))
	a := &next.Accesses[i]
	switch rng.Intn(8) {
	case 0: // identical reinstall
	case 1: // grow at the top
		a.Hi = min(a.Hi+1+uint32(rng.Intn(512)), uint32(words))
	case 2: // shrink at the top
		a.Hi -= uint32(rng.Intn(int(a.Hi - a.Lo)))
	case 3: // shrink at the bottom
		a.Lo += uint32(rng.Intn(int(a.Hi - a.Lo)))
	case 4: // grow at the bottom
		a.Lo -= uint32(rng.Intn(int(a.Lo) + 1))
	case 5: // move every region
		for i := range next.Accesses {
			size := next.Accesses[i].Hi - next.Accesses[i].Lo
			lo := uint32(rng.Intn(words - int(size)))
			next.Accesses[i].Lo, next.Accesses[i].Hi = lo, lo+size
		}
	case 6: // another mutant: other stages, other translations
		return randomGrant(rng, g.FID, stages, words)
	case 7: // same regions, another program's translations
		prev := -1
		if i > 0 {
			prev = next.Accesses[i-1].Logical
		}
		a.Xlate = randomXlate(rng, prev, a.Logical)
	}
	return next
}

// TestInstallGrantDeltaEqualsRebuild drives seeded grant sequences (grow,
// shrink at either edge, move, mutant change, new translate stages,
// identical reinstall) through
// two runtimes: one reinstalls over what is there, the other removes the
// grant first. The tables (regions, TCAM budget, translate entries), every
// register word and the epochs must stay identical, and the delta side must
// return exactly the entries it had to edit plus the gate: an identical
// reinstall costs 1. With a TCAM too small for some grants, an install that
// does not fit leaves the FID with no entries on both sides.
func TestInstallGrantDeltaEqualsRebuild(t *testing.T) {
	for _, tcam := range []int{rmt.DefaultTCAMEntries, 40} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := rmt.DefaultConfig()
			cfg.StageWords, cfg.TCAMEntries = 1<<13, tcam
			delta, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rebuild, _ := New(cfg)
			rng := rand.New(rand.NewSource(seed))
			held := map[uint16]Grant{}
			identical, refused := 0, 0
			for step := 0; step < 400; step++ {
				fid := uint16(1 + rng.Intn(5))
				g, resident := held[fid]
				if resident {
					g = editGrant(rng, g, cfg.NumStages, cfg.StageWords)
				} else {
					g = randomGrant(rng, fid, cfg.NumStages, cfg.StageWords)
				}
				// Dirty a few words of every stage on both sides, so zeroing shows.
				for s := 0; s < cfg.NumStages; s++ {
					for i := 0; i < 8; i++ {
						addr, v := uint32(rng.Intn(cfg.StageWords)), rng.Uint32()|1
						delta.dev.Stage(s).Registers.Write(addr, v)
						rebuild.dev.Stage(s).Registers.Write(addr, v)
					}
				}
				before := tablesOf(rebuild, fid)
				ops, err := delta.InstallGrant(g)
				rebuild.RemoveGrant(fid)
				_, refErr := rebuild.InstallGrant(g)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("tcam %d seed %d step %d: delta install %v, rebuild %v", tcam, seed, step, err, refErr)
				}
				if err != nil {
					var full *rmt.ErrTCAMFull
					if !errors.As(err, &full) || len(delta.InstalledRegions(fid)) != 0 || delta.Epoch(fid) != rebuild.Epoch(fid) {
						t.Fatalf("tcam %d seed %d step %d: failed install %v left regions %v, epoch %d vs %d",
							tcam, seed, step, err, delta.InstalledRegions(fid), delta.Epoch(fid), rebuild.Epoch(fid))
					}
					delta.RemoveGrant(fid) // the rebuild side already has
					delete(held, fid)
					refused++
				} else {
					want := editCost(before, tablesOf(rebuild, fid), cfg.NumStages) + 1
					if ops != want {
						t.Fatalf("tcam %d seed %d step %d: install of %+v over %+v returned %d ops, want %d", tcam, seed, step, g, held[fid], ops, want)
					}
					if resident && sameAccesses(g.Accesses, held[fid].Accesses) {
						identical++
						if ops != 1 {
							t.Fatalf("tcam %d seed %d step %d: identical reinstall cost %d ops, want 1", tcam, seed, step, ops)
						}
					}
					held[fid] = g
				}
				for s := 0; s < cfg.NumStages; s++ {
					ds, rs := delta.dev.Stage(s), rebuild.dev.Stage(s)
					if !slices.Equal(ds.Prot.Regions(), rs.Prot.Regions()) || ds.Prot.Used() != rs.Prot.Used() {
						t.Fatalf("tcam %d seed %d step %d stage %d: regions %v (%d used), rebuild has %v (%d used)",
							tcam, seed, step, s, ds.Prot.Regions(), ds.Prot.Used(), rs.Prot.Regions(), rs.Prot.Used())
					}
					if !slices.Equal(ds.TranslateEntries(), rs.TranslateEntries()) {
						t.Fatalf("tcam %d seed %d step %d stage %d: translate %v, rebuild has %v", tcam, seed, step, s, ds.TranslateEntries(), rs.TranslateEntries())
					}
					dw, _ := ds.Registers.Snapshot(0, uint32(cfg.StageWords))
					rw, _ := rs.Registers.Snapshot(0, uint32(cfg.StageWords))
					if !slices.Equal(dw, rw) {
						t.Fatalf("tcam %d seed %d step %d stage %d: register words differ", tcam, seed, step, s)
					}
				}
				if delta.Epoch(fid) != rebuild.Epoch(fid) || delta.Admitted(fid) != rebuild.Admitted(fid) {
					t.Fatalf("tcam %d seed %d step %d: fid %d epoch %d admitted %v, rebuild %d %v", tcam, seed, step, fid,
						delta.Epoch(fid), delta.Admitted(fid), rebuild.Epoch(fid), rebuild.Admitted(fid))
				}
			}
			if identical == 0 || (tcam < rmt.DefaultTCAMEntries) != (refused > 0) {
				t.Errorf("tcam %d seed %d: %d identical reinstalls, %d refused: the sequence missed a case", tcam, seed, identical, refused)
			}
		}
	}
}
