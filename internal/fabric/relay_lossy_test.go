package fabric_test

import (
	"hash/fnv"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/fabric"
)

// TestRelayLossyRetransmission drives the switchd relay under a netsim drop
// injector: a stream of coherent-cache writes from leaf 0 crosses the lossy
// leaf<->spine uplink, so commit capsules (and their acks) die mid-path and
// the client retransmits. The per-hop re-arming — a transit switch
// reattaching the executed program so the next device runs it from the top
// — must survive the storm without double-execution damage: every write
// still linearizes exactly once (server holds the final value, both leaves
// converge to it), and no replica's memory retains a superseded value that
// a duplicate or re-armed copy could have resurrected.
func TestRelayLossyRetransmission(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)

	const k0, k1 = 0x77, 0x88
	const v0 = 50
	srv.Store[apps.KeyOf(k0, k1)] = v0

	cc, err := fabric.NewCoherentCache(fc, 13, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint32]uint32)
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { got[seq] = value }

	if err := cc.Warm(0, []apps.KVMsg{{Key0: k0, Key1: k1, Value: v0}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	// Aim the drop injector at the writer's uplink toward the home spine —
	// the link every commit capsule and write ack must cross.
	home := f.SpineFor(srv.MAC())
	homeIdx := -1
	for i, s := range f.Spines {
		if s == home {
			homeIdx = i
		}
	}
	up, err := f.UplinkPort(0, homeIdx)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.LinkLoss{Link: up, Rate: 0.3, Seed: 99}
	inj.Apply(nil)

	relayed := func() uint64 {
		var n uint64
		for _, node := range append(append([]*fabric.Node{}, f.Leaves...), f.Spines...) {
			n += node.Switch.RelayedPrograms
		}
		return n
	}
	baseRelayed := relayed()

	var final uint32
	for i := 0; i < 12; i++ {
		v := uint32(100 + i)
		if _, err := cc.Put(0, k0, k1, v); err != nil {
			t.Fatal(err)
		}
		before := cc.WriteAcks
		runUntil(t, f, 5*time.Second, "write ack under loss", func() bool {
			return cc.WriteAcks > before
		})
		final = v
	}
	if cc.CommitRetransmits == 0 {
		t.Fatal("a 30% lossy uplink forced no commit retransmissions — the drop injector is not in the write path")
	}
	inj.Revert(nil)
	f.RunFor(100 * time.Millisecond)

	if relayed() == baseRelayed {
		t.Fatal("no per-hop program re-arming observed on any transit switch")
	}
	if v := srv.Store[apps.KeyOf(k0, k1)]; v != final {
		t.Fatalf("server store = %d after retransmit storm, want %d", v, final)
	}

	// Both leaves converge to the final value — a duplicate of an earlier
	// write re-executing at any hop must not have resurrected it.
	for _, leaf := range []int{0, 1} {
		seq, err := cc.Get(leaf, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		runUntil(t, f, time.Second, "post-storm read", func() bool {
			_, ok := got[seq]
			return ok
		})
		if got[seq] != final {
			t.Fatalf("leaf %d read %d after retransmit storm, want %d", leaf, got[seq], final)
		}
	}

	// Memory-level check: every replica member's value word holds the final
	// value or nothing (an evicted bucket) — never a superseded value.
	set := cc.Set()
	pl := set.Placement
	h := fnv.New32a()
	var b [8]byte
	for i := 0; i < 4; i++ {
		b[i] = byte(uint32(k0) >> (24 - 8*i))
		b[4+i] = byte(uint32(k1) >> (24 - 8*i))
	}
	h.Write(b[:])
	addr := pl.Accesses[0].Range.Lo + h.Sum32()%uint32(cc.Capacity())
	valAcc := pl.Accesses[len(pl.Accesses)-1]
	for _, m := range set.Members {
		dev := m.Node.RT.Device()
		v := dev.Stage(dev.PhysicalStage(valAcc.Logical)).Registers.Read(addr)
		if v != 0 && v != final {
			t.Fatalf("%s value word = %d after retransmit storm, want %d or 0", m.Node.Name, v, final)
		}
	}
}
