package testbed

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/fabric"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/switchd"
)

// The frame-lifetime check: the same seeded request stream through a
// complete system — clients, links, switches, guard, controller — once as
// built and once with every host's frame destroyed the moment its Receive
// returns. Everything an observer can see must be identical: the bytes and
// arrival time of every frame at every host port, the final virtual clock,
// and every switch, runtime, device and guard counter.

// wire sits between a link and a host and records what the host receives.
// A scribbling wire hands the host a private copy of the frame and overwrites
// it once Receive returns: a frame is the host's only for the duration of the
// call, so anything a host kept aliasing it reads back as 0xA5.
type wire struct {
	host     netsim.Endpoint
	eng      *netsim.Engine
	log      bytes.Buffer
	scribble bool
}

func (w *wire) Receive(frame []byte, p *netsim.Port) {
	fmt.Fprintf(&w.log, "%d %x\n", w.eng.Now(), frame)
	if !w.scribble {
		w.host.Receive(frame, p)
		return
	}
	own := append([]byte(nil), frame...)
	w.host.Receive(own, p)
	for i := range own {
		own[i] = 0xA5
	}
}

// observed is what one run leaves behind for comparison.
type observed struct {
	wires    []*wire // in attach order
	clock    time.Duration
	counters string
	hosts    string // every answer in order, then every client, cache and server counter
}

// clientLine renders a shim client's counters and final state.
func clientLine(cl *client.Client) string {
	return fmt.Sprintln("client", cl.FID(), cl.Sent, cl.SentUnactivated, cl.Received, cl.Reallocations,
		cl.Retries, cl.ReallocTimeouts, cl.Evictions, cl.State(), cl.Epoch())
}

// counterLine renders every counter of one switch and what sits under it.
func counterLine(sw *switchd.Switch, g *guard.Guard) string {
	rt := sw.Runtime()
	d := rt.Device()
	s := fmt.Sprintln("switch", sw.FramesIn, sw.FramesForwarded, sw.FramesReturned, sw.FramesDropped,
		sw.UnknownMAC, sw.GuardDropped, sw.ControlTransit, sw.RelayedPrograms, sw.ProbesEchoed, sw.ProbeReplies,
		"runtime", rt.ProgramsRun, rt.Passthrough, rt.Faults, rt.RecircThrottled,
		rt.QuarantineDrops, rt.RevokedDrops, rt.TableOps,
		"device", d.PacketsIn, d.PacketsDropped, d.Recirculations)
	for i := 0; i < d.NumStages(); i++ {
		st := d.Stage(i)
		s += fmt.Sprintln("stage", i, st.Executed, st.Registers.Reads, st.Registers.Writes, st.Registers.Faults)
	}
	if g != nil {
		s += fmt.Sprintln("guard", g.Checked(), g.DroppedAtIngress(), g.TenantViolations(), g.PortViolations())
	}
	return s
}

// compareHosts holds two runs to the same answers, host counters and frames
// delivered to every host.
func compareHosts(t *testing.T, x, y observed) {
	t.Helper()
	if x.hosts != y.hosts {
		t.Errorf("answers or host counters differ (%d vs %d bytes of log)", len(x.hosts), len(y.hosts))
	}
	for i := range x.wires {
		if a, b := x.wires[i].log.Bytes(), y.wires[i].log.Bytes(); !bytes.Equal(a, b) {
			t.Errorf("host %d: egress frame sequence differs (%d vs %d bytes of log)", i, len(a), len(b))
		}
	}
}

// runTestbedStream drives four cache tenants on the single-switch testbed:
// populates (the writes), GETs that hit and miss, a tenant arriving
// mid-stream so a resident one is deactivated, reallocated and repopulated
// under traffic, and capsules that fault outside their region.
func runTestbedStream(t *testing.T, scribble bool) observed {
	t.Helper()
	tb := newBed(t)
	var obs observed
	var hosts bytes.Buffer
	// tap re-homes the link of the host behind switch port pnum on a
	// recording wire, port number and link parameters as built.
	tap := func(pnum int, h switchd.Host) {
		w := &wire{host: h, eng: tb.Eng, scribble: scribble}
		obs.wires = append(obs.wires, w)
		swPort, hostPort := netsim.Connect(tb.Eng, tb.Switch, pnum, w, 0, tb.cfg.LinkDelay, tb.cfg.LinkBW)
		tb.Switch.AddPort(swPort, h.MAC())
		h.Attach(hostPort)
	}
	srv := tb.AddKVServer()
	tap(1, srv) // the first host attached

	const keys = 256
	objs := make([]apps.KVMsg, keys)
	for i := range objs {
		objs[i] = apps.KVMsg{Key0: uint32(i + 1), Key1: uint32(i*7 + 3), Value: uint32(1000 + i)}
		srv.Store[apps.KeyOf(objs[i].Key0, objs[i].Key1)] = objs[i].Value
	}
	addTenant := func(fid uint16) (*apps.Cache, *client.Client) {
		c, cl := tb.AddCache(fid, srv)
		tap(cl.Port().Peer().Num, cl)
		c.SetHotObjects(objs[:64]) // the rest miss through to the server
		c.OnResponse = func(seq, value uint32, hit bool) { fmt.Fprintln(&hosts, "answer", fid, seq, value, hit) }
		return c, cl
	}
	// Three caches fill the stages disjointly; the fourth, arriving under
	// traffic, shares with the first, which is reallocated (Figure 9b).
	const tenants = 4
	caches := make([]*apps.Cache, tenants)
	clients := make([]*client.Client, tenants)
	for i := range caches {
		caches[i], clients[i] = addTenant(uint16(i + 1))
	}
	for i := 0; i < tenants-1; i++ {
		if err := clients[i].RequestAndWait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		caches[i].Populate()
	}
	tb.RunFor(10 * time.Millisecond)

	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 4000; op++ {
		if op == 1000 {
			// Not waited for: GETs keep arriving through tenant 1's
			// deactivation, the table update and the epoch change.
			if err := clients[tenants-1].RequestAllocation(); err != nil {
				t.Fatal(err)
			}
			caches[tenants-1].Populate() // deferred until the grant arrives
		}
		i := rng.Intn(tenants)
		o := objs[rng.Intn(keys)]
		switch {
		case op%500 == 499:
			// An address beyond any region: protection fault, guard event.
			_ = clients[i].SendProgram("main", [4]uint32{o.Key0, o.Key1, 1 << 30, 0}, 0, nil, srv.MAC())
		case op%700 == 699:
			caches[i].Populate()
		default:
			caches[i].Get(o.Key0, o.Key1)
		}
		if op%8 == 7 {
			tb.RunFor(time.Millisecond)
		}
	}
	tb.RunFor(time.Second)
	reallocated := 0
	for _, rec := range tb.Ctrl.Records {
		reallocated += rec.Reallocated
	}
	if caches[0].Hits == 0 || caches[0].Misses == 0 || caches[tenants-1].Hits == 0 || tb.RT.Faults == 0 || reallocated == 0 {
		t.Fatalf("stream too tame: hits %d/%d misses %d faults %d reallocated %d",
			caches[0].Hits, caches[tenants-1].Hits, caches[0].Misses, tb.RT.Faults, reallocated)
	}
	for i, c := range caches {
		hosts.WriteString(clientLine(clients[i]))
		fmt.Fprintln(&hosts, "cache", c.Hits, c.Misses, c.PopAcks)
	}
	fmt.Fprintln(&hosts, "server", srv.Requests, srv.Puts)
	obs.hosts = hosts.String()
	obs.clock = tb.Eng.Now()
	obs.counters = counterLine(tb.Switch, tb.Guard)
	return obs
}

// runFabricStream drives a coherent cache replicated on both leaves of a 2x1
// fabric with a 90/10 GET/PUT mix from both leaves: leaf hits, relays to the
// home spine, two-phase writes, invalidations and fills.
func runFabricStream(t *testing.T, scribble bool) observed {
	t.Helper()
	cfg := fabric.DefaultConfig(2, 1)
	f, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var obs observed
	var hosts bytes.Buffer
	tap := func(ep netsim.Endpoint) *wire {
		w := &wire{host: ep, eng: f.Eng, scribble: scribble}
		obs.wires = append(obs.wires, w)
		return w
	}
	fc := fabric.NewController(f)
	mac, ip := f.NewHostID()
	srv := apps.NewKVServer(f.Eng, mac, ip)
	sp, err := f.AttachHost(1, tap(srv), mac)
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(sp)
	cc, err := fabric.NewCoherentCache(fc, 9, []int{0, 1}, mac, ip)
	if err != nil {
		t.Fatal(err)
	}
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { fmt.Fprintln(&hosts, "answer", leaf, seq, value, hit) }
	cc.OnWriteAck = func(leaf int, seq, value uint32) { fmt.Fprintln(&hosts, "write-ack", leaf, seq, value) }
	// The cache attached its own frontends: re-home each one's link on a
	// recording wire, port number and link parameters as built.
	for _, m := range cc.Set().Members {
		leaf := f.Leaves[m.Leaf]
		swPort, hostPort := netsim.Connect(f.Eng, leaf.Switch, m.Client.Port().Peer().Num, tap(m.Client), 0, cfg.HostLinkDelay, cfg.LinkBW)
		leaf.Switch.AddPort(swPort, m.Client.MAC())
		m.Client.Attach(hostPort)
	}

	const keys = 256
	objs := make([]apps.KVMsg, keys)
	for i := range objs {
		objs[i] = apps.KVMsg{Key0: uint32(i + 1), Key1: uint32(i*7 + 3), Value: uint32(1000 + i)}
		srv.Store[apps.KeyOf(objs[i].Key0, objs[i].Key1)] = objs[i].Value
	}
	if err := cc.Warm(0, objs); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 3000; op++ {
		leaf, o := rng.Intn(2), objs[rng.Intn(keys)]
		if rng.Intn(10) == 0 {
			_, err = cc.Put(leaf, o.Key0, o.Key1, uint32(5000+op))
		} else {
			_, err = cc.Get(leaf, o.Key0, o.Key1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if op%8 == 7 {
			f.RunFor(200 * time.Microsecond)
		}
	}
	f.RunFor(time.Second)
	if cc.Hits == 0 || cc.Misses == 0 || cc.WriteAcks == 0 || cc.Fills == 0 {
		t.Fatalf("stream too tame: hits %d misses %d write acks %d fills %d", cc.Hits, cc.Misses, cc.WriteAcks, cc.Fills)
	}
	for _, m := range cc.Set().Members {
		hosts.WriteString(clientLine(m.Client))
	}
	fmt.Fprintln(&hosts, "cache", cc.Hits, cc.Misses, cc.Fills, cc.WriteAcks, cc.PopAcks, cc.InvalSent, cc.InvalDelivered,
		cc.InvalRetransmits, cc.CommitRetransmits, cc.FillsSuppressed, cc.HomeEvictions)
	fmt.Fprintln(&hosts, "server", srv.Requests, srv.Puts)
	obs.hosts = hosts.String()
	obs.clock = f.Eng.Now()
	for _, n := range f.Nodes() {
		obs.counters += n.Name + " " + counterLine(n.Switch, n.Guard)
	}
	return obs
}

// TestHostsRetainNoFrameAlias: end hosts decode into scratch that aliases the
// delivered frame, so nothing may outlive Receive. Both streams — cache hits,
// misses and a reallocation on the testbed; reads, two-phase writes,
// invalidations and fills on the fabric — must play out identically when
// every host's frame is destroyed the moment its Receive returns.
func TestHostsRetainNoFrameAlias(t *testing.T) {
	for name, run := range map[string]func(*testing.T, bool) observed{
		"testbed": runTestbedStream, "fabric": runFabricStream,
	} {
		t.Run(name, func(t *testing.T) {
			kept, scribbled := run(t, false), run(t, true)
			if kept.clock != scribbled.clock || kept.counters != scribbled.counters {
				t.Errorf("switch side differs: clock %v vs %v", kept.clock, scribbled.clock)
			}
			compareHosts(t, kept, scribbled)
		})
	}
}
