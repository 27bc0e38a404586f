package runtime

import (
	"math"
	"time"

	"activermt/internal/rmt"
)

// This file implements the extensions the paper sketches in Section 7:
//
//   - a recirculation fairness controller ("one could contemplate
//     implementing a fairness controller that accounted for bandwidth
//     inflation due to recirculations and rate-limited services
//     appropriately", Section 7.2), realized as a per-FID token bucket
//     charged one token per extra pipeline pass;
//   - privilege levels for active programs ("adding a notion of privilege
//     levels to active programs; we are exploring the latter in ongoing
//     work", Section 7.2), realized as a per-FID privilege bit gating the
//     forwarding-affecting instructions (SET_DST, FORK, DROP);
//   - the extended runtime with baseline L2 protocol support merged in
//     ("we integrated a subset of L2-forwarding functionality from
//     switch.p4, but were forced to remove one stage from active program
//     processing ... increases latency by ~4%", Section 7.1), realized as
//     a configuration transform.

// RecircPolicy configures the recirculation fairness controller. A FID may
// consume Budget extra pipeline passes per Window; packets that would
// exceed the budget are dropped before execution (recirculation inflates
// bandwidth, so policing happens at admission to the pipeline).
type RecircPolicy struct {
	Budget int
	Window time.Duration
}

// recircState is one FID's token-bucket state.
type recircState struct {
	tokens      int
	windowStart time.Duration
}

// EnableRecircLimiter activates per-FID recirculation policing. now is the
// virtual-clock source (the controller's engine).
func (r *Runtime) EnableRecircLimiter(p RecircPolicy, now func() time.Duration) {
	r.recircPolicy = p
	r.recircNow = now
	r.recirc = make(map[uint16]*recircState)
}

// RecircAllowed charges the extra passes a program will consume and reports
// whether the packet may enter the pipeline.
func (r *Runtime) RecircAllowed(fid uint16, progLen int) bool {
	if r.recirc == nil {
		return true
	}
	n := r.dev.Config().NumStages
	extra := (progLen - 1) / n // full passes beyond the first
	if extra <= 0 {
		return true
	}
	now := r.recircNow()
	st, ok := r.recirc[fid]
	if !ok || now-st.windowStart >= r.recircPolicy.Window {
		st = &recircState{tokens: r.recircPolicy.Budget, windowStart: now}
		r.recirc[fid] = st
	}
	if st.tokens < extra {
		r.RecircThrottled++
		return false
	}
	st.tokens -= extra
	return true
}

// RecircBudgetRemaining reports the extra-pass tokens fid has left in its
// current window, so cooperative recirculation apps (the probabilistic
// heavy hitter) can defer multi-pass capsules instead of tripping the
// limiter and landing in the guard's recirc-throttled ledger. The answer is
// conservative in the caller's favor: a window rollover between this call
// and admission only refills the bucket, so a capsule sent while
// remaining >= its extra passes is never throttled (assuming the FID has a
// single cooperating sender). With the limiter disabled every budget query
// reports "unlimited".
func (r *Runtime) RecircBudgetRemaining(fid uint16) int {
	if r.recirc == nil {
		return math.MaxInt
	}
	now := r.recircNow()
	st, ok := r.recirc[fid]
	if !ok || now-st.windowStart >= r.recircPolicy.Window {
		return r.recircPolicy.Budget
	}
	return st.tokens
}

// Privilege levels: unprivileged programs may compute and access their own
// memory but cannot affect forwarding beyond returning to their sender.
const (
	// PrivForwarding permits SET_DST, FORK, and DROP.
	PrivForwarding uint8 = 1 << 0
)

// SetPrivilege assigns a FID's privilege mask (counts as one table update).
func (r *Runtime) SetPrivilege(fid uint16, mask uint8) {
	row := r.row(fid)
	row.privSet, row.privilege = true, mask
	r.TableOps++
	r.commit()
}

// Mirror sessions: the FORK instruction's operand names a clone session
// whose egress port the control plane configures — the Tofino clone-session
// model, used by the mirroring service to steer copies to a collector.

// SetMirrorSession installs (fid, session) -> egress port.
func (r *Runtime) SetMirrorSession(fid uint16, session uint8, port uint32) {
	if r.mirror == nil {
		r.mirror = make(map[uint32]uint32)
	}
	r.mirror[mirrorKey(fid, session)] = port
	r.TableOps++
	r.commit()
}

// ClearMirrorSession removes a session.
func (r *Runtime) ClearMirrorSession(fid uint16, session uint8) {
	delete(r.mirror, mirrorKey(fid, session))
	r.TableOps++
	r.commit()
}

// MirrorSession looks up a session's egress port (consulted by the FORK
// action on the packet path).
func (r *Runtime) MirrorSession(fid uint16, session uint8) (uint32, bool) {
	p, ok := r.mirror[mirrorKey(fid, session)]
	return p, ok
}

func mirrorKey(fid uint16, session uint8) uint32 {
	return uint32(fid)<<8 | uint32(session)
}

// ExtendedForwardingConfig derives the configuration of the Section 7.1
// extended runtime: merging baseline L2 protocol support costs one stage of
// active processing and about 4% latency.
func ExtendedForwardingConfig(cfg rmt.Config) rmt.Config {
	out := cfg
	out.NumStages = cfg.NumStages - 1
	if out.NumIngress >= out.NumStages {
		out.NumIngress = out.NumStages - 1
	}
	out.PassLatency = cfg.PassLatency * 104 / 100
	return out
}
