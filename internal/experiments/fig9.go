package experiments

import (
	"fmt"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/stats"
	"activermt/internal/testbed"
	"activermt/internal/workload"
)

func init() {
	register(Spec{
		ID:    "fig9a",
		Title: "Case study: monitor, context switch, populate, serve",
		Paper: "A client runs the frequent-item monitor for ~2s, extracts hot keys, context-switches to the cache (a bit over half a second), populates it, and the hit rate stabilizes (~85% at their Zipf mix).",
		Run:   runFig9a,
	})
	register(Spec{
		ID:    "fig9b",
		Title: "Four private caches, staggered arrivals",
		Paper: "Four clients each install a cache, staggered 5s apart; the first three get disjoint stages (no disruption), the fourth shares with the first, leaving those two at an equal but lower hit rate.",
		Run:   func(cfg RunConfig) (*Result, error) { return runFig9b(cfg, false) },
	})
	register(Spec{
		ID:    "fig10",
		Title: "Fine-timescale hit rates around arrivals",
		Paper: "Each instance climbs from zero hit rate (provisioning) to steady state within a second; the fourth arrival disrupts the first instance for ~150ms while it yields memory.",
		Run:   func(cfg RunConfig) (*Result, error) { return runFig9b(cfg, true) },
	})
}

// caseStudyClient drives Zipf GET traffic through whatever service is
// currently installed, recording per-bin hit rates.
type caseStudyClient struct {
	cache         *apps.Cache
	hh            *apps.HeavyHitter
	cacheCl, hhCl *client.Client
	zipf          *workload.Zipf
	keys          [][2]uint32

	reqInterval time.Duration
	hits        *stats.Series
	binHits     float64
	binTotal    float64
}

// newCaseStudy builds one client plus its two services against a shared
// testbed and server.
func newCaseStudy(tb *testbed.Testbed, srv *apps.KVServer, baseFID uint16, seed int64, nkeys int) *caseStudyClient {
	cs := &caseStudyClient{
		zipf:        workload.NewZipf(seed, 1.15, uint64(nkeys)),
		reqInterval: 100 * time.Microsecond,
		hits:        stats.NewSeries(fmt.Sprintf("hit_rate_%d", baseFID)),
	}
	cs.keys = make([][2]uint32, nkeys)
	for i := range cs.keys {
		k0, k1 := uint32(0x10000+i)*2654435761, uint32(0x20000+i)*2246822519
		cs.keys[i] = [2]uint32{k0, k1}
		srv.Store[apps.KeyOf(k0, k1)] = uint32(0xC0DE0000 + i)
	}

	cs.cache, cs.cacheCl = tb.AddCache(baseFID, srv)
	cs.cache.OnResponse = func(seq, value uint32, hit bool) {
		cs.binTotal++
		if hit {
			cs.binHits++
		}
	}

	cs.hh = apps.NewHeavyHitter(30)
	cs.hhCl = tb.AddClient(baseFID+1000, apps.HeavyHitterService(cs.hh))
	cs.hh.Bind(cs.hhCl)
	cs.hh.SnapshotFn = tb.SnapshotFn()
	return cs
}

// drawKey picks the next Zipf key.
func (cs *caseStudyClient) drawKey() (uint32, uint32) {
	k := cs.keys[cs.zipf.Next()]
	return k[0], k[1]
}

// sendViaCache issues one GET through the cache service.
func (cs *caseStudyClient) sendViaCache() {
	k0, k1 := cs.drawKey()
	cs.cache.Get(k0, k1)
}

// sendViaMonitor issues one GET activated with the monitor program.
func (cs *caseStudyClient) sendViaMonitor(srv *apps.KVServer, selfIP int) {
	k0, k1 := cs.drawKey()
	msg := apps.KVMsg{Op: apps.KVGet, Key0: k0, Key1: k1}
	payload := apps.BuildUDP(testbed.IPFor(selfIP), testbed.IPFor(999), 40001, apps.KVPort, msg.Encode())
	cs.hh.Observe(k0, k1, payload, srv.MAC())
}

// recordBin closes one measurement bin.
func (cs *caseStudyClient) recordBin(at time.Duration) {
	rate := 0.0
	if cs.binTotal > 0 {
		rate = cs.binHits / cs.binTotal
	}
	cs.hits.Add(at, rate)
	cs.binHits, cs.binTotal = 0, 0
}

func runFig9a(cfg RunConfig) (*Result, error) {
	total := 8 * time.Second
	if cfg.Quick {
		total = 5 * time.Second
	}
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return nil, err
	}
	srv := tb.AddKVServer()

	cs := newCaseStudy(tb, srv, 1, cfg.Seed+9, 4096)

	// Phase 1 (T=0): deploy the frequent-item monitor and activate object
	// requests with it for two seconds.
	if err := cs.hhCl.RequestAndWait(5 * time.Second); err != nil {
		return nil, err
	}
	monitorUntil := tb.Eng.Now() + 2*time.Second
	bin := 10 * time.Millisecond
	nextBin := tb.Eng.Now() + bin

	for tb.Eng.Now() < monitorUntil {
		cs.sendViaMonitor(srv, 1)
		tb.RunFor(cs.reqInterval)
		if tb.Eng.Now() >= nextBin {
			cs.recordBin(tb.Eng.Now())
			nextBin += bin
		}
	}

	// Phase 2: memory synchronization — extract the hot set.
	hot, err := cs.hh.HotKeys()
	if err != nil {
		return nil, err
	}
	var hotObjs []apps.KVMsg
	for _, kv := range hot {
		hotObjs = append(hotObjs, apps.KVMsg{Key0: kv.Key0, Key1: kv.Key1,
			Value: srv.Store[apps.KeyOf(kv.Key0, kv.Key1)]})
	}

	// Phase 3: context switch — release the monitor, allocate the cache.
	switchStart := tb.Eng.Now()
	_ = cs.hhCl.Release()
	tb.RunFor(100 * time.Millisecond)
	if err := cs.cacheCl.RequestAndWait(5 * time.Second); err != nil {
		return nil, err
	}
	switchDur := tb.Eng.Now() - switchStart

	// Phase 4: populate and serve.
	cs.cache.SetHotObjects(hotObjs)
	cs.cache.Populate()
	for tb.Eng.Now() < time.Duration(total) {
		cs.sendViaCache()
		tb.RunFor(cs.reqInterval)
		if tb.Eng.Now() >= nextBin {
			cs.recordBin(tb.Eng.Now())
			nextBin += bin
		}
	}

	res := &Result{ID: "fig9a", Title: "cache hit rate over the case-study timeline", Metrics: map[string]float64{}}
	res.CSV = cs.hits.CSV()
	// Steady-state hit rate: mean of the last quarter.
	vals := cs.hits.Values()
	steady := stats.Summarize(vals[3*len(vals)/4:]).Mean
	res.Metrics["steady_hit_rate"] = steady
	res.Metrics["context_switch_s"] = switchDur.Seconds()
	res.Metrics["hot_keys_extracted"] = float64(len(hotObjs))
	res.Notes = append(res.Notes,
		fmt.Sprintf("context switch (monitor release + cache allocation) took %.3fs", switchDur.Seconds()),
		fmt.Sprintf("steady-state hit rate %.2f with %d extracted hot keys", steady, len(hotObjs)))
	return res, nil
}

// runFig9b runs the four staggered private caches; fine=true emits 1ms bins
// around each arrival (Figure 10), otherwise 100ms bins for the whole run
// (Figure 9b).
func runFig9b(cfg RunConfig, fine bool) (*Result, error) {
	stagger := 5 * time.Second
	tail := 5 * time.Second
	if cfg.Quick {
		stagger, tail = 2*time.Second, 2*time.Second
	}
	bin := 100 * time.Millisecond
	if fine {
		bin = 10 * time.Millisecond
	}
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return nil, err
	}
	srv := tb.AddKVServer()

	// The keyspace must exceed a half-pool cache's capacity so that the
	// two sharing tenants settle at a visibly lower hit rate than the
	// exclusive ones (the paper's Figure 9b separation).
	nkeys := 1 << 17
	if cfg.Quick {
		nkeys = 1 << 16
	}
	const n = 4
	css := make([]*caseStudyClient, n)
	for i := range css {
		css[i] = newCaseStudy(tb, srv, uint16(i+1), cfg.Seed+int64(i)*17, nkeys)
		// Figure 9b omits the monitor: populate from known patterns.
		var hot []apps.KVMsg
		for _, k := range css[i].keys {
			hot = append(hot, apps.KVMsg{Key0: k[0], Key1: k[1], Value: srv.Store[apps.KeyOf(k[0], k[1])]})
		}
		css[i].cache.SetHotObjects(hot)
	}

	started := make([]bool, n)
	nextBin := tb.Eng.Now() + bin
	end := time.Duration(n)*stagger + tail
	for tb.Eng.Now() < end {
		now := tb.Eng.Now()
		for i := range css {
			if !started[i] && now >= time.Duration(i)*stagger {
				started[i] = true
				_ = css[i].cacheCl.RequestAllocation()
				// Populate as soon as the allocation lands.
				idx := i
				css[i].cacheCl.Service().OnOperational = func(cl *client.Client) {
					css[idx].cache.Populate()
				}
			}
			if started[i] {
				css[i].sendViaCache()
			}
		}
		tb.RunFor(css[0].reqInterval)
		if tb.Eng.Now() >= nextBin {
			for i := range css {
				if started[i] {
					css[i].recordBin(tb.Eng.Now())
				}
			}
			nextBin += bin
		}
	}

	id := "fig9b"
	if fine {
		id = "fig10"
	}
	res := &Result{ID: id, Title: "per-instance hit rates, staggered arrivals", Metrics: map[string]float64{}}
	var series []*stats.Series
	for i := range css {
		series = append(series, css[i].hits)
		vals := css[i].hits.Values()
		if len(vals) > 4 {
			res.Metrics[fmt.Sprintf("steady_hit_rate_%d", i+1)] = stats.Summarize(vals[3*len(vals)/4:]).Mean
		}
		res.Metrics[fmt.Sprintf("reallocations_%d", i+1)] = float64(css[i].cacheCl.Reallocations)
	}
	res.CSV = stats.MergeCSV("t_ns", series...)
	res.Notes = append(res.Notes,
		"the fourth arrival forces sharing: the first instance is briefly disrupted and both settle at an equal, lower hit rate",
		fmt.Sprintf("reallocations seen by instance 1: %d", int(res.Metrics["reallocations_1"])))
	return res, nil
}
