package runtime

import (
	"testing"

	"activermt/internal/packet"
)

// Regression: a FID whose grant was removed must hard-drop, not fall through
// to stage-NOP passthrough. Before the guard work, RemoveGrant left the FID
// indistinguishable from a never-admitted one, so its packets were forwarded
// unexecuted — a revoked tenant kept using switch bandwidth.
func TestRevokedFIDHardDrops(t *testing.T) {
	r := testRuntime(t)
	const fid = 11
	installCacheGrant(t, r, fid, 0, 64)
	r.RemoveGrant(fid)

	outs := r.ExecuteProgram(progPacket(fid, cacheQuery, [4]uint32{1, 2, 10, 0}))
	if len(outs) != 1 {
		t.Fatalf("outputs = %d", len(outs))
	}
	if !outs[0].Dropped {
		t.Fatal("revoked FID's packet must drop, not pass through")
	}
	if outs[0].Active.Header.Flags&packet.FlagFailed == 0 {
		t.Error("revoked drop must set FlagFailed")
	}
	if r.RevokedDrops != 1 {
		t.Errorf("RevokedDrops = %d, want 1", r.RevokedDrops)
	}
	if r.Passthrough != 0 {
		t.Errorf("Passthrough = %d, want 0 (revoked is not a table miss)", r.Passthrough)
	}

	// A fresh grant clears revocation: the FID executes again.
	installCacheGrant(t, r, fid, 0, 64)
	outs = r.ExecuteProgram(progPacket(fid, cacheQuery, [4]uint32{1, 2, 10, 0}))
	if outs[0].Dropped {
		t.Error("re-admitted FID must execute")
	}
}

// Regression: quarantined (deactivated) FIDs must hard-drop normal traffic
// while still executing FlagMemSync extraction programs, and a reactivated
// FID resumes normally.
func TestQuarantineHardDropAndMemSync(t *testing.T) {
	r := testRuntime(t)
	const fid = 12
	installCacheGrant(t, r, fid, 0, 64)
	r.Deactivate(fid)

	outs := r.ExecuteProgram(progPacket(fid, cacheQuery, [4]uint32{1, 2, 10, 0}))
	if !outs[0].Dropped {
		t.Fatal("quarantined FID's normal traffic must drop")
	}
	if outs[0].Active.Header.Flags&packet.FlagFailed == 0 {
		t.Error("quarantine drop must set FlagFailed")
	}
	if r.QuarantineDrops != 1 {
		t.Errorf("QuarantineDrops = %d, want 1", r.QuarantineDrops)
	}

	// Extraction traffic still runs against the frozen snapshot.
	ms := progPacket(fid, cacheQuery, [4]uint32{1, 2, 10, 0})
	ms.Header.Flags |= packet.FlagMemSync
	outs = r.ExecuteProgram(ms)
	if outs[0].Dropped {
		t.Error("FlagMemSync traffic must execute during quarantine")
	}

	r.Reactivate(fid)
	outs = r.ExecuteProgram(progPacket(fid, cacheQuery, [4]uint32{1, 2, 10, 0}))
	if outs[0].Dropped {
		t.Error("reactivated FID must execute")
	}
	if r.QuarantineDrops != 1 {
		t.Errorf("QuarantineDrops = %d after reactivation, want still 1", r.QuarantineDrops)
	}
}

// Grant epochs count 1..127 and wrap back to 1; 0 always means "no epoch".
func TestEpochLifecycle(t *testing.T) {
	r := testRuntime(t)
	const fid = 13
	if r.Epoch(fid) != 0 {
		t.Fatalf("epoch before admission = %d, want 0", r.Epoch(fid))
	}
	installCacheGrant(t, r, fid, 0, 64)
	if r.Epoch(fid) != 1 {
		t.Fatalf("epoch after first grant = %d, want 1", r.Epoch(fid))
	}
	r.RemoveGrant(fid)
	if !r.Revoked(fid) {
		t.Fatal("RemoveGrant must mark the FID revoked")
	}
	if r.Epoch(fid) != 1 {
		t.Errorf("epoch must survive revocation, got %d", r.Epoch(fid))
	}
	installCacheGrant(t, r, fid, 0, 64)
	if r.Revoked(fid) {
		t.Error("fresh grant must clear revocation")
	}
	if r.Epoch(fid) != 2 {
		t.Errorf("epoch after re-grant = %d, want 2", r.Epoch(fid))
	}

	// Wrap: 127 -> 1, skipping 0.
	if got := nextEpoch(packet.EpochMax); got != 1 {
		t.Errorf("nextEpoch(127) = %d, want 1", got)
	}
	if got := nextEpoch(0); got != 1 {
		t.Errorf("nextEpoch(0) = %d, want 1", got)
	}
}
