package testbed

import (
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/packet"
)

// TestTenantAddressContract pins the addresses and ports the constructors
// hand out, which every output that names a host depends on: the KV server
// is host 200 at IPFor(999); a cache reserves its IP before its client, so
// the IP's host number precedes the client's MAC; hosts take consecutive
// switch ports; and AddMemSync binds its MemSync to the client.
func TestTenantAddressContract(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()
	cache, cl := tb.AddCache(1, srv)
	if srv.MAC() != MACFor(200) {
		t.Errorf("KV server MAC %v, want host 200's %v", srv.MAC(), MACFor(200))
	}

	// An unactivated GET goes straight to the server, whose reply travels
	// from the server's IP to the cache's.
	var reply packet.IPv4Header
	bound := cl.Handler
	cl.Handler = func(c *client.Client, f *packet.Frame) {
		reply, _, _, _ = apps.ParseUDP(f.Inner)
		bound(c, f)
	}
	cache.Get(1, 2)
	tb.RunFor(5 * time.Millisecond)
	if reply.Src != IPFor(999) {
		t.Errorf("KV server answers from %v, want %v", reply.Src, IPFor(999))
	}
	if reply.Dst != IPFor(1) || cl.MAC() != MACFor(2) {
		t.Errorf("cache at IP %v behind client MAC %v, want host 1's IP %v before host 2's MAC %v",
			reply.Dst, cl.MAC(), IPFor(1), MACFor(2))
	}

	if got := cl.Port().Peer().Num; got != 2 {
		t.Errorf("cache client on switch port %d, want 2 (after the server's 1)", got)
	}
	for want := 3; want <= 4; want++ {
		if got := tb.AddHost(apps.NewEchoServer(tb.Eng, MACFor(200+want))); got != want {
			t.Errorf("AddHost returned switch port %d, want %d", got, want)
		}
	}
	ms, mcl := tb.AddMemSync(2, 1)
	if ms.Client != mcl || mcl.Port().Peer().Num != 5 {
		t.Errorf("MemSync bound to %p on switch port %d, want client %p on port 5",
			ms.Client, mcl.Port().Peer().Num, mcl)
	}
}
