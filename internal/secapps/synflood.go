package secapps

import (
	"math/rand"

	"activermt/internal/client"
	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// SynDetector drives the SYN-flood exemplar: SYN capsules bump a per-source
// half-open counter in switch memory, ACK capsules reset it, and sources
// whose backlog crosses Threshold leave their fingerprint in an alarm table
// the control plane scans. Alarms are sticky on the client: the switch-side
// table is a last-writer-wins slot array, so the driver accumulates every
// fingerprint it has ever seen (a flooder keeps rewriting its alarm, so
// interleaved attackers all surface across scans).
type SynDetector struct {
	Client *client.Client

	// Threshold is the half-open backlog above which a source alarms,
	// carried in every SYN capsule.
	Threshold uint32

	// SnapshotFn reads this FID's region in a physical stage via the switch
	// control plane.
	SnapshotFn func(fid uint16, physStage int) ([]uint32, error)

	// Observed records every source the driver has activated, so alarm
	// fingerprints resolve back to known sources.
	Observed map[uint32]bool

	// Alarmed is the sticky alarm set.
	Alarmed map[uint32]bool

	SynsSent, AcksSent, AlarmsRaised uint64
}

// NewSynDetector returns a detector with the given backlog threshold.
func NewSynDetector(threshold uint32) *SynDetector {
	return &SynDetector{
		Threshold: threshold,
		Observed:  make(map[uint32]bool),
		Alarmed:   make(map[uint32]bool),
	}
}

// Bind attaches the shim client.
func (d *SynDetector) Bind(cl *client.Client) { d.Client = cl }

// WireTelemetry registers the detector's alarm counter, read from
// AlarmsRaised.
func (d *SynDetector) WireTelemetry(reg *telemetry.Registry) {
	reg.Counter("activermt_secapps_syn_alarms_total", "Sticky SYN-flood alarms raised (distinct sources)", &d.AlarmsRaised)
}

// Syn activates one SYN through the detector (src must be non-zero: a zero
// fingerprint is invisible in the alarm table).
func (d *SynDetector) Syn(src uint32, payload []byte, dst [6]byte) {
	d.SynVia(d.Client, src, payload, dst)
}

// SynVia sends one SYN through a specific shim client — replicated
// deployments (one detector instance per ingress leaf) route each source's
// traffic through the replica on its ingress leaf.
func (d *SynDetector) SynVia(cl *client.Client, src uint32, payload []byte, dst [6]byte) {
	d.Observed[src] = true
	d.SynsSent++
	_ = cl.SendProgram("syn", [4]uint32{src, 0, d.Threshold, 0}, 0, payload, dst)
}

// Ack completes src's handshake, resetting its half-open counter.
func (d *SynDetector) Ack(src uint32, payload []byte, dst [6]byte) {
	d.AckVia(d.Client, src, payload, dst)
}

// AckVia is Ack through a specific replica's client; it must be the same
// replica that carried the source's SYNs (the counters are per device).
func (d *SynDetector) AckVia(cl *client.Client, src uint32, payload []byte, dst [6]byte) {
	d.AcksSent++
	_ = cl.SendProgram("ack", [4]uint32{src, 0, 0, 0}, 0, payload, dst)
}

// ScanAlarms reads the alarm table via the control plane, folds every
// resolvable fingerprint into the sticky set, and returns the sources that
// are newly alarmed in this scan.
func (d *SynDetector) ScanAlarms() ([]uint32, error) {
	return d.ScanAlarmsVia(d.SnapshotFn)
}

// ScanAlarmsVia scans one device's alarm table through the given snapshot
// reader. Replicated deployments call it once per member device and let the
// sticky set union the results — all members share one placement, so the
// bound client's placement addresses every copy.
func (d *SynDetector) ScanAlarmsVia(snap func(fid uint16, physStage int) ([]uint32, error)) ([]uint32, error) {
	pl := d.Client.Placement()
	if pl == nil || snap == nil {
		return nil, nil
	}
	words, err := snap(d.Client.FID(), pl.Accesses[1].Physical)
	if err != nil {
		return nil, err
	}
	var fresh []uint32
	for _, fp := range words {
		if fp == 0 || d.Alarmed[fp] || !d.Observed[fp] {
			continue
		}
		d.Alarmed[fp] = true
		d.AlarmsRaised++
		fresh = append(fresh, fp)
	}
	return fresh, nil
}

// sfHashIdx is the instruction index of the HASH in both templates; it sits
// before the first access, so mutant synthesis never moves it.
const sfHashIdx = 3

// CounterSlot mirrors the switch's per-source counter slot (hash-unit seeds
// are deterministic per stage, and the translate mask is derivable from the
// granted region size). Generators use it to reject source populations with
// colliding slots, keeping the detection oracle exact.
func (d *SynDetector) CounterSlot(src uint32) (uint32, bool) {
	pl := d.Client.Placement()
	if pl == nil {
		return 0, false
	}
	h := rmt.StageHash(d.Client.Pipeline.Physical(sfHashIdx), [rmt.NumHashWords]uint32{src})
	size := int(pl.Accesses[0].Range.Hi - pl.Accesses[0].Range.Lo)
	return h & maskFor(size), true
}

// Score compares the sticky alarm set against attacker ground truth.
func (d *SynDetector) Score(attackers map[uint32]bool) (precision, recall float64) {
	tp, fp := 0, 0
	for src := range d.Alarmed {
		if attackers[src] {
			tp++
		} else {
			fp++
		}
	}
	fn := 0
	for src := range attackers {
		if !d.Alarmed[src] {
			fn++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// SynFloodGen is the seeded attack-mix generator: benign sources complete
// handshakes (SYN immediately followed by ACK), attackers only ever SYN.
// Truth carries the attacker ground truth for scoring.
type SynFloodGen struct {
	rng       *rand.Rand
	Benign    []uint32
	Attackers []uint32
	Truth     map[uint32]bool
}

// The per-source volume of one SynFloodGen.Round.
const (
	benignHandshakes = 4
	attackSYNs       = 8
)

// NewSynFloodGen draws distinct non-zero source identifiers for the given
// population. slot, when non-nil, maps a source to its switch counter slot;
// the generator then rejection-samples sources onto distinct slots so the
// oracle stays exact (a benign ACK on a shared slot would silently reset an
// attacker's backlog — the sketch's documented false-negative mode).
func NewSynFloodGen(seed int64, benign, attackers int, slot func(uint32) uint32) *SynFloodGen {
	g := &SynFloodGen{
		rng:   rand.New(rand.NewSource(seed)),
		Truth: make(map[uint32]bool),
	}
	seen := make(map[uint32]bool)
	slots := make(map[uint32]bool)
	draw := func() uint32 {
		for {
			src := g.rng.Uint32()
			if src == 0 || seen[src] {
				continue
			}
			if slot != nil {
				s := slot(src)
				if slots[s] {
					continue
				}
				slots[s] = true
			}
			seen[src] = true
			return src
		}
	}
	for i := 0; i < benign; i++ {
		g.Benign = append(g.Benign, draw())
	}
	for i := 0; i < attackers; i++ {
		src := draw()
		g.Attackers = append(g.Attackers, src)
		g.Truth[src] = true
	}
	return g
}

// Round plays one traffic round through the detector: every benign source
// completes benignHandshakes handshakes, every attacker fires attackSYNs
// bare SYNs, in a seeded interleaving.
func (g *SynFloodGen) Round(d *SynDetector, dst [6]byte) {
	type ev struct {
		src uint32
		ack bool
	}
	var evs []ev
	for _, src := range g.Benign {
		for i := 0; i < benignHandshakes; i++ {
			evs = append(evs, ev{src, false}, ev{src, true})
		}
	}
	for _, src := range g.Attackers {
		for i := 0; i < attackSYNs; i++ {
			evs = append(evs, ev{src, false})
		}
	}
	// An arbitrary interleaving is safe: every ACK resets its source to
	// zero, so a benign backlog never exceeds the per-round handshake count
	// — the detector threshold just has to sit above 2*benignHandshakes
	// (trailing SYNs of one round plus leading SYNs of the next).
	g.rng.Shuffle(len(evs), func(i, j int) {
		evs[i], evs[j] = evs[j], evs[i]
	})
	for _, e := range evs {
		if e.ack {
			d.Ack(e.src, nil, dst)
		} else {
			d.Syn(e.src, nil, dst)
		}
	}
}
