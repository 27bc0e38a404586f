package testbed

import (
	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/switchd"
)

// AddHost connects h to the next switch port, hands it its end of the link
// and returns the switch port number.
func (tb *Testbed) AddHost(h switchd.Host) int {
	pnum, p := tb.Attach(h, h.MAC())
	h.Attach(p)
	return pnum
}

// AddClient attaches a shim client for a service on a fresh host identity.
// The client's pipeline view matches the testbed switch.
func (tb *Testbed) AddClient(fid uint16, svc *client.Service) *client.Client {
	_, mac, _ := tb.NewHostID()
	cl := client.New(tb.Eng, fid, mac, tb.Switch.MAC(), svc)
	cl.Pipeline = tb.cfg.Alloc.Shape
	tb.AddHost(cl)
	return cl
}

// AddKVServer attaches the KV server cache tenants miss to: host 200, at
// IPFor(999).
func (tb *Testbed) AddKVServer() *apps.KVServer {
	srv := apps.NewKVServer(tb.Eng, MACFor(200), IPFor(999))
	tb.AddHost(srv)
	return srv
}

// AddCache attaches a cache tenant in front of srv. It reserves the tenant's
// IP before its client's host: host numbers are handed out in call order,
// and every output that names a host depends on this one.
func (tb *Testbed) AddCache(fid uint16, srv *apps.KVServer) (*apps.Cache, *client.Client) {
	_, _, ip := tb.NewHostID()
	c := apps.NewCache(srv.MAC(), ip, IPFor(999))
	cl := tb.AddClient(fid, apps.CacheService(c))
	c.Bind(cl)
	return c, cl
}

// AddMemSync attaches a memsync tenant of demand blocks (0 = elastic), its
// MemSync bound to the client.
func (tb *Testbed) AddMemSync(fid uint16, demand int) (*apps.MemSync, *client.Client) {
	ms := apps.NewMemSync()
	cl := tb.AddClient(fid, apps.MemSyncService(demand))
	ms.Bind(cl)
	return ms, cl
}
