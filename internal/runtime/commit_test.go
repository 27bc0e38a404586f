package runtime

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// tableModel is the reference the incremental tables are checked against:
// the map-per-table representation and the commit rules of the
// implementation the sorted slices replaced, re-derived from scratch on
// every comparison.
type tableModel struct {
	n      int
	prot   []map[uint16]rmt.Region
	xlate  []map[uint16]rmt.Translate
	admit  map[uint16]bool
	quar   map[uint16]bool
	revoke map[uint16]bool
	epoch  map[uint16]uint8
}

func newTableModel(n int) *tableModel {
	m := &tableModel{n: n, admit: map[uint16]bool{}, quar: map[uint16]bool{}, revoke: map[uint16]bool{}, epoch: map[uint16]uint8{}}
	for i := 0; i < n; i++ {
		m.prot = append(m.prot, map[uint16]rmt.Region{})
		m.xlate = append(m.xlate, map[uint16]rmt.Translate{})
	}
	return m
}

func (m *tableModel) clear(fid uint16) {
	for s := 0; s < m.n; s++ {
		delete(m.prot[s], fid)
		delete(m.xlate[s], fid)
	}
}

func (m *tableModel) admitFID(fid uint16) {
	m.admit[fid] = true
	m.epoch[fid] = nextEpoch(m.epoch[fid])
	delete(m.revoke, fid)
}

func (m *tableModel) install(g Grant) {
	m.clear(g.FID)
	for _, a := range g.Accesses {
		m.prot[a.Logical%m.n][g.FID] = rmt.Region{FID: g.FID, Lo: a.Lo, Hi: a.Hi}
		for _, l := range a.Xlate {
			m.xlate[l%m.n][g.FID] = rmt.TranslateRegion(a.Lo, a.Hi)
		}
	}
	m.admitFID(g.FID)
}

func (m *tableModel) remove(fid uint16) {
	if !m.admit[fid] {
		return
	}
	m.clear(fid)
	delete(m.admit, fid)
	delete(m.quar, fid)
	m.revoke[fid] = true
}

// holds reports whether fid has any entry in stage s.
func (m *tableModel) holds(s int, fid uint16) bool {
	_, p := m.prot[s][fid]
	_, x := m.xlate[s][fid]
	return p || x
}

// check compares everything the runtime's tables answer against the model.
func (m *tableModel) check(t *testing.T, r *Runtime, fids []uint16) {
	t.Helper()
	for s := 0; s < m.n; s++ {
		st := r.dev.Stage(s)
		want := make([]rmt.Region, 0, len(m.prot[s]))
		for _, reg := range m.prot[s] {
			want = append(want, reg)
		}
		slices.SortFunc(want, func(a, b rmt.Region) int { return cmp.Compare(a.FID, b.FID) })
		if !slices.Equal(st.Prot.Regions(), want) {
			t.Fatalf("stage %d: regions %v, want %v", s, st.Prot.Regions(), want)
		}
		entries := st.TranslateEntries()
		if len(entries) != len(m.xlate[s]) || !slices.IsSortedFunc(entries, func(a, b rmt.TranslateEntry) int { return cmp.Compare(a.FID, b.FID) }) {
			t.Fatalf("stage %d: translate entries %v, want the %d of %v in FID order", s, entries, len(m.xlate[s]), m.xlate[s])
		}
		for _, fid := range fids {
			wantReg, wantOK := m.prot[s][fid]
			if got, ok := st.Prot.Region(fid); got != wantReg || ok != wantOK {
				t.Fatalf("stage %d fid %d: region %v %v, want %v %v", s, fid, got, ok, wantReg, wantOK)
			}
			for _, addr := range []uint32{wantReg.Lo, wantReg.Hi - 1, wantReg.Hi} {
				want := wantOK && addr >= wantReg.Lo && addr < wantReg.Hi
				if st.Prot.Lookup(fid, addr) != want {
					t.Fatalf("stage %d fid %d addr %d: lookup %v, want %v", s, fid, addr, st.Prot.Lookup(fid, addr), want)
				}
			}
			wantTr, wantOK := m.xlate[s][fid]
			if got, ok := st.TranslateFor(fid); got != wantTr || ok != wantOK {
				t.Fatalf("stage %d fid %d: translate %v %v, want %v %v", s, fid, got, ok, wantTr, wantOK)
			}
		}
	}
	var admitted []uint16
	for _, fid := range fids {
		if r.Admitted(fid) != m.admit[fid] || r.Quarantined(fid) != m.quar[fid] ||
			r.Revoked(fid) != m.revoke[fid] || r.Epoch(fid) != m.epoch[fid] {
			t.Fatalf("fid %d: admitted %v quarantined %v revoked %v epoch %d, want %v %v %v %d", fid,
				r.Admitted(fid), r.Quarantined(fid), r.Revoked(fid), r.Epoch(fid),
				m.admit[fid], m.quar[fid], m.revoke[fid], m.epoch[fid])
		}
		if m.admit[fid] {
			admitted = append(admitted, fid)
		}
	}
	if !slices.Equal(r.AdmittedFIDs(), admitted) {
		t.Fatalf("AdmittedFIDs %v, want %v", r.AdmittedFIDs(), admitted)
	}
}

// TestIncrementalViewMatchesRebuild drives a seeded random commit sequence
// and, after every step, compares the tables the runtime edits in place —
// sorted slices searched by FID and by address — against the model rebuilt
// from scratch.
func TestIncrementalViewMatchesRebuild(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 4096
	cfg.TCAMEntries = 1 << 20 // never the reason a step fails
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := newTableModel(cfg.NumStages)
	var fids []uint16
	for f := uint16(1); f <= 64; f++ {
		fids = append(fids, f)
	}
	fids = append(fids, 255, 60001, 60002, 60003, 60004)
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 2000; step++ {
		fid := fids[rng.Intn(len(fids))]
		switch op := rng.Intn(9); {
		case op < 4:
			g := Grant{FID: fid}
			logical := -1
			for a := 1 + rng.Intn(3); a > 0; a-- {
				prev := logical
				logical += 1 + rng.Intn(9) // up to 27: second-pass accesses wrap onto used stages
				lo := uint32(rng.Intn(cfg.StageWords - 1))
				g.Accesses = append(g.Accesses, AccessGrant{Logical: logical, Lo: lo, Hi: lo + 1 + uint32(rng.Intn(cfg.StageWords-int(lo))),
					Xlate: randomXlate(rng, prev, logical)})
			}
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			m.install(g)
		case op < 6:
			r.RemoveGrant(fid)
			m.remove(fid)
		case op == 6:
			r.Deactivate(fid)
			m.quar[fid] = true
		case op == 7:
			r.Reactivate(fid)
			delete(m.quar, fid)
		default:
			r.AdmitStateless(fid)
			if !m.admit[fid] {
				m.admitFID(fid)
			}
		}
		m.check(t, r, fids)
	}
}

// residentRuntime returns a runtime with the given number of tenants
// installed, each holding the three regions of a cache grant.
func residentRuntime(t *testing.T, residents int) *Runtime {
	t.Helper()
	r := testRuntime(t)
	for i := 0; i < residents; i++ {
		installCacheGrant(t, r, uint16(100+i), uint32(64*i), uint32(64*i+64))
	}
	return r
}

// TestCommitAllocs gates what a commit allocates on the host: nothing, for a
// Deactivate+Reactivate pair and for reinstalling a grant unchanged, whether
// 8 or 40 tenants are resident. A commit edits the tables in place and bumps
// a generation; it copies no table and builds no snapshot.
func TestCommitAllocs(t *testing.T) {
	for _, residents := range []int{8, 40} {
		r := residentRuntime(t, residents)
		g := Grant{FID: 100, Accesses: []AccessGrant{
			{Logical: 1, Lo: 0, Hi: 64}, {Logical: 4, Lo: 0, Hi: 64}, {Logical: 8, Lo: 0, Hi: 64},
		}}
		reinstall := testing.AllocsPerRun(50, func() {
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatal(err)
			}
		})
		toggle := testing.AllocsPerRun(50, func() {
			r.Deactivate(100)
			r.Reactivate(100)
		})
		if reinstall != 0 || toggle != 0 {
			t.Errorf("%d residents: unchanged reinstall = %v allocs, Deactivate+Reactivate = %v allocs, want 0 and 0", residents, reinstall, toggle)
		}
	}
}

// TestInstallGrantFailureCountsTableOps: a grant whose second access does
// not fit the TCAM is rolled back, and every operation on the way — the
// partial install, the rollback — is in the returned count, in
// Runtime.TableOps and in the telemetry counter alike.
func TestInstallGrantFailureCountsTableOps(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 4096
	cfg.TCAMEntries = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r.AttachTelemetry(reg)
	scraped := func() uint64 {
		v, _ := snapGauge(reg.Snapshot(), "activermt_runtime_table_ops_total", "")
		return uint64(v)
	}
	fits := Grant{FID: 9, Accesses: []AccessGrant{{Logical: 2, Lo: 0, Hi: 64, Xlate: []int{0, 1}}, {Logical: 5, Lo: 0, Hi: 64, Xlate: []int{3, 4}}}}
	installed, err := r.InstallGrant(fits)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 2 + 1 + 2 + 1; installed != want { // 2 regions of 1 prefix, 4 translate entries, the gate
		t.Fatalf("install = %d ops, want %d", installed, want)
	}
	epoch := r.Epoch(9)

	// [1, 100) expands to 8 prefixes: more than stage 5's whole TCAM.
	tooBig := Grant{FID: 9, Accesses: []AccessGrant{{Logical: 2, Lo: 64, Hi: 128, Xlate: []int{0, 1}}, {Logical: 5, Lo: 1, Hi: 100, Xlate: []int{3, 4}}}}
	failed, err := r.InstallGrant(tooBig)
	if err == nil {
		t.Fatal("oversized region installed")
	}
	// First access moved in place (1 prefix out, 1 in), then everything the
	// FID holds rolled back (2 regions, 4 translate entries).
	if want := 2 + 6; failed != want {
		t.Errorf("failed install = %d ops, want %d", failed, want)
	}
	if got, want := r.TableOps, uint64(installed+failed); got != want {
		t.Errorf("Runtime.TableOps = %d, want %d (the sum of the returned counts)", got, want)
	}
	if got := scraped(); got != r.TableOps {
		t.Errorf("telemetry table ops = %d, Runtime.TableOps = %d", got, r.TableOps)
	}
	if len(r.InstalledRegions(9)) != 0 || len(r.Device().Stage(0).TranslateEntries()) != 0 {
		t.Error("rolled-back grant left table entries")
	}
	if !r.Admitted(9) || r.Epoch(9) != epoch {
		t.Errorf("failed reinstall changed admission: admitted %v, epoch %d (was %d)", r.Admitted(9), r.Epoch(9), epoch)
	}

	// The mirror-session mutators are one table update each, counted in
	// both places like every other.
	before := r.TableOps
	r.SetMirrorSession(9, 1, 7)
	r.ClearMirrorSession(9, 1)
	if got := r.TableOps - before; got != 2 {
		t.Errorf("mirror set/clear = %d table ops, want 2", got)
	}
	if got := scraped(); got != r.TableOps {
		t.Errorf("after mirror updates: telemetry table ops = %d, Runtime.TableOps = %d", got, r.TableOps)
	}
}
