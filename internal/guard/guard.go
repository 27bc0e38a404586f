// Package guard is the capsule-validation and isolation-enforcement layer:
// the runtime-programmable analogue of Menshen-style per-tenant enforcement,
// defending the shared pipeline against misbehaving tenants rather than
// failing networks (which internal/chaos covers).
//
// The guard sits at three points:
//
//   - ingress (CheckProgram, called by the switch before execution):
//     structural validation, grant-epoch authentication of the claimed FID,
//     instruction-budget capping, and escalation-state gating;
//   - the execute path (runtime.GuardHook, called by the runtime): every
//     protection fault and recirculation throttle lands in the offender's
//     ledger;
//   - the control plane (Escalator, implemented by switchd.Controller):
//     quarantine and eviction decisions flow back through the normal
//     deactivation and reallocation machinery.
//
// Escalation is deterministic and hysteretic: violations accumulate in a
// per-tenant decaying window, and a tenant climbs warn -> rate-limit ->
// quarantine -> evict only as the window fills. One stray packet never
// evicts; an idle window heals the warn and rate-limit rungs.
package guard

import (
	"time"

	"activermt/internal/packet"
	"activermt/internal/runtime"
	"activermt/internal/telemetry"
)

// The escalation ladder, tuned for the simulated testbed: a burst of a
// handful of faults warns, sustained abuse quarantines within tens of
// packets, and eviction needs roughly twice that again. Counts are
// violations inside EscalationWindow; reaching each moves the tenant to the
// corresponding rung.
const (
	EscalationWindow = 500 * time.Millisecond // decay horizon for violation events

	warnAt        = 3
	rateLimitAt   = 8
	quarantineAt  = 16
	evictAt       = 32
	rateLimitPass = 4 // 1-in-N capsules pass while rate-limited
)

// stateFor maps a window score to the highest rung it reaches.
func stateFor(score int) TenantState {
	switch {
	case score >= evictAt:
		return Evicted
	case score >= quarantineAt:
		return Quarantined
	case score >= rateLimitAt:
		return RateLimited
	case score >= warnAt:
		return Warned
	}
	return Healthy
}

// Escalator receives the guard's control-plane decisions. The controller
// implements it: quarantine maps to runtime deactivation, eviction to a
// release through the normal reallocation path plus a client notice.
type Escalator interface {
	GuardQuarantine(fid uint16)
	GuardEvict(fid uint16)
}

// Guard holds the ledgers and climbs the escalation ladder. Like the rest of
// the switch it is single-threaded under the simulation engine.
type Guard struct {
	rt  *runtime.Runtime
	now func() time.Duration
	esc Escalator

	tenants map[uint16]*Ledger
	ports   map[int]*PortLedger

	// Counters: Checked, DroppedAtIngress, TenantViolations and
	// PortViolations read them, and so does a registry (AttachTelemetry).
	checked, ingressDrops            uint64
	tenantViolations, portViolations uint64
	byKind                           [numKinds]uint64 // violations per Kind
}

// AttachTelemetry registers the guard's metric families in reg, reading the
// counters above and, for the tenant-state gauge, the ledgers themselves.
func (g *Guard) AttachTelemetry(reg *telemetry.Registry) {
	reg.Counter("activermt_guard_checked_total", "program capsules inspected at ingress", &g.checked)
	reg.Counter("activermt_guard_ingress_drops_total", "capsules refused by the ingress gate", &g.ingressDrops)
	reg.Counter("activermt_guard_tenant_violations_total", "authenticated violations charged to tenants", &g.tenantViolations)
	reg.Counter("activermt_guard_port_violations_total", "unauthenticated violations charged to ingress ports", &g.portViolations)
	reg.Vec("activermt_guard_violations_total", "violations by class (port- and tenant-attributed)",
		telemetry.KindCounter, "kind", func(add func(string, float64)) {
			for k := Kind(0); int(k) < numKinds; k++ {
				add(k.String(), float64(g.byKind[k]))
			}
		})
	reg.Vec("activermt_guard_tenants", "tenant ledgers per escalation state",
		telemetry.KindGauge, "state", func(add func(string, float64)) {
			var n [int(Evicted) + 1]int
			for _, led := range g.tenants {
				n[led.state]++
			}
			for st := Healthy; st <= Evicted; st++ {
				add(st.String(), float64(n[st]))
			}
		})
}

// Checked returns the capsules inspected at ingress.
func (g *Guard) Checked() uint64 { return g.checked }

// DroppedAtIngress returns the capsules refused by CheckProgram.
func (g *Guard) DroppedAtIngress() uint64 { return g.ingressDrops }

// TenantViolations returns the authenticated violation total.
func (g *Guard) TenantViolations() uint64 { return g.tenantViolations }

// PortViolations returns the unauthenticated violation total.
func (g *Guard) PortViolations() uint64 { return g.portViolations }

// New builds a guard over the runtime. now is the virtual-clock source; it
// must be the same clock the escalator's controller runs on.
func New(rt *runtime.Runtime, now func() time.Duration) *Guard {
	return &Guard{
		rt:      rt,
		now:     now,
		tenants: make(map[uint16]*Ledger),
		ports:   make(map[int]*PortLedger),
	}
}

// SetEscalator installs the control-plane sink for quarantine/evict
// decisions (nil: record-only mode).
func (g *Guard) SetEscalator(e Escalator) { g.esc = e }

// Tenant returns fid's ledger, or nil if the guard has never recorded
// anything for it.
func (g *Guard) Tenant(fid uint16) *Ledger { return g.tenants[fid] }

// Port returns the ingress port's violation ledger, or nil.
func (g *Guard) Port(port int) *PortLedger { return g.ports[port] }

// maxProgramLen is the instruction budget: the device's recirculation
// ceiling (MaxPasses * NumStages).
func (g *Guard) maxProgramLen() int {
	cfg := g.rt.Device().Config()
	return cfg.MaxPasses * cfg.NumStages
}

// CheckProgram is the ingress gate: the switch calls it for every decoded
// program capsule before execution and drops the frame when it returns
// false. port is the ingress port, the attribution target for capsules that
// fail authentication.
func (g *Guard) CheckProgram(a *packet.Active, port int) bool {
	if a == nil || a.Header.Type() != packet.TypeProgram {
		return true
	}
	g.checked++
	fid := a.Header.FID

	// Structural sanity. Decoding already rejected truncated capsules;
	// this rejects programs whose shape cannot execute (bad labels,
	// branches to nowhere). When the ingress decoder came through the
	// program cache it memoized the verdict (parse-once): the walk below
	// runs only for capsules decoded without a cache.
	if a.Program == nil {
		return g.denyPort(port, KindMalformed)
	}
	switch a.ValidState {
	case packet.ProgValid:
		// validated once at decode; skip the per-packet walk
	case packet.ProgInvalid:
		return g.denyPort(port, KindMalformed)
	default:
		if err := a.Program.Validate(); err != nil {
			return g.denyPort(port, KindMalformed)
		}
	}

	// Identity. Revoked and evicted FIDs have no pipeline access at all;
	// never-admitted FIDs pass through unexecuted exactly as a table miss
	// would, so they are not the guard's concern.
	if g.rt.Revoked(fid) {
		return g.denyPort(port, KindRevoked)
	}
	led := g.tenants[fid]
	if led != nil && led.state == Evicted {
		return g.denyPort(port, KindRevoked)
	}
	if !g.rt.Admitted(fid) {
		return true
	}
	// Grant-epoch authentication: the capsule must echo the epoch of the
	// current grant.
	if echo := uint8(a.Header.Opaque) & packet.EpochMax; echo != g.rt.Epoch(fid) {
		return g.denyPort(port, KindBadEpoch)
	}

	// The capsule authenticated: from here violations are the tenant's.
	if a.Program.Len() > g.maxProgramLen() {
		return g.denyTenant(fid, KindOverBudget)
	}
	if led != nil {
		now := g.now()
		led.prune(now)
		if len(led.events) == 0 && (led.state == Warned || led.state == RateLimited) {
			// The window drained: the warn/rate-limit rungs heal.
			g.transition(led, Healthy, KindRecovered, 0, now)
		}
		switch led.state {
		case Quarantined:
			// Still sending while quarantined pushes toward eviction.
			return g.denyTenant(fid, KindQuarTraffic)
		case RateLimited:
			led.rlSeq++
			if led.rlSeq%rateLimitPass != 0 {
				g.ingressDrops++
				return false // shed, but not itself a violation
			}
		}
	}
	return true
}

// Reinstate resets fid's ledger after the controller granted it a fresh
// allocation: re-admission starts a clean escalation history (the violation
// counts and transitions survive for the record).
func (g *Guard) Reinstate(fid uint16) {
	led, ok := g.tenants[fid]
	if !ok || led.state == Healthy {
		return
	}
	g.transition(led, Healthy, KindReadmitted, led.Score(), g.now())
	led.events = led.events[:0]
	led.rlSeq = 0
}

// MemFault implements runtime.GuardHook: a protection fault by an admitted
// (authenticated at ingress) tenant, charged to its ledger.
func (g *Guard) MemFault(fid uint16) { g.recordTenant(fid, KindMemFault) }

// RecircThrottled implements runtime.GuardHook.
func (g *Guard) RecircThrottled(fid uint16) {
	g.recordTenant(fid, KindRecircThrottled)
}

// denyPort records an unauthenticated violation against the ingress port and
// refuses the capsule.
func (g *Guard) denyPort(port int, k Kind) bool {
	pl, ok := g.ports[port]
	if !ok {
		pl = &PortLedger{Port: port}
		g.ports[port] = pl
	}
	pl.counts[int(k)]++
	pl.Total++
	g.portViolations++
	g.ingressDrops++
	g.byKind[k]++
	return false
}

// denyTenant records an authenticated violation and refuses the capsule.
func (g *Guard) denyTenant(fid uint16, k Kind) bool {
	g.recordTenant(fid, k)
	g.ingressDrops++
	return false
}

// tenant returns (creating if needed) fid's ledger.
func (g *Guard) tenant(fid uint16) *Ledger {
	led, ok := g.tenants[fid]
	if !ok {
		led = &Ledger{FID: fid}
		g.tenants[fid] = led
	}
	return led
}

// recordTenant appends one authenticated violation to fid's window and
// escalates if a threshold is crossed. Escalation is monotone within one
// admission: the ladder only climbs, so a burst that reaches quarantine
// cannot talk itself back down without the controller reinstating the
// tenant.
func (g *Guard) recordTenant(fid uint16, k Kind) {
	led := g.tenant(fid)
	led.counts[int(k)]++
	led.total++
	g.tenantViolations++
	g.byKind[k]++
	now := g.now()
	led.prune(now)
	led.events = append(led.events, now)
	if target := stateFor(len(led.events)); target > led.state {
		g.transition(led, target, k, len(led.events), now)
	}
}

// transition moves a ledger between states, records history, and fires the
// escalator on the quarantine and evict rungs.
func (g *Guard) transition(led *Ledger, to TenantState, k Kind, score int, now time.Duration) {
	led.History = append(led.History, Transition{At: now, From: led.state, To: to, Trigger: k, Score: score})
	led.state = to
	switch to {
	case Quarantined:
		if g.esc != nil {
			g.esc.GuardQuarantine(led.FID)
		}
	case Evicted:
		if g.esc != nil {
			g.esc.GuardEvict(led.FID)
		}
	}
}
