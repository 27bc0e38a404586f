package guard

import (
	"fmt"
	"time"
)

// Kind classifies one isolation violation. The split between port-attributed
// and tenant-attributed kinds is the guard's core security decision: a
// violation is charged to the claimed FID only after the capsule proved it
// holds the FID's current grant epoch. Everything unauthenticated is charged
// to the ingress port instead, so an attacker spraying a victim's FID cannot
// talk the guard into evicting the victim.
type Kind int

// Violation kinds.
const (
	// Port-attributed: the capsule failed authentication, so the claimed
	// FID cannot be trusted.
	KindMalformed Kind = iota // undecodable or structurally invalid program
	KindBadEpoch              // claimed FID with a stale or forged grant epoch
	KindRevoked               // traffic from a FID whose grant was revoked or evicted
	// Tenant-attributed: the capsule authenticated, so the violation is
	// the tenant's own doing.
	KindOverBudget      // program length exceeds the instruction budget
	KindMemFault        // stateful access outside the installed grant
	KindRecircThrottled // recirculation fairness budget exhausted
	KindQuarTraffic     // kept sending while guard-quarantined
	// Bookkeeping triggers for ledger transitions.
	KindRecovered  // violation window drained empty
	KindReadmitted // controller reinstated the tenant after a fresh grant

	numKinds int = iota
)

// String names the violation kind.
func (k Kind) String() string {
	switch k {
	case KindMalformed:
		return "malformed"
	case KindBadEpoch:
		return "bad-epoch"
	case KindRevoked:
		return "revoked"
	case KindOverBudget:
		return "over-budget"
	case KindMemFault:
		return "mem-fault"
	case KindRecircThrottled:
		return "recirc-throttled"
	case KindQuarTraffic:
		return "quarantine-traffic"
	case KindRecovered:
		return "recovered"
	case KindReadmitted:
		return "readmitted"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TenantState is a tenant's position on the escalation ladder.
type TenantState int

// Escalation states, in severity order. Warned and RateLimited auto-heal
// when the violation window drains; Quarantined and Evicted are sticky until
// the controller reinstates the tenant with a fresh grant.
const (
	Healthy TenantState = iota
	Warned
	RateLimited
	Quarantined
	Evicted
)

// String names the state.
func (s TenantState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Warned:
		return "warned"
	case RateLimited:
		return "rate-limited"
	case Quarantined:
		return "quarantined"
	case Evicted:
		return "evicted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Transition is one ledger state change, kept for operators and tests.
type Transition struct {
	At      time.Duration
	From    TenantState
	To      TenantState
	Trigger Kind
	Score   int // violations in the window at transition time
}

// String renders the transition for trace output.
func (t Transition) String() string {
	return fmt.Sprintf("[%8.3fs] %s -> %s (%s, score %d)",
		t.At.Seconds(), t.From, t.To, t.Trigger, t.Score)
}

// Ledger is one tenant's violation record: per-kind counts since admission,
// the decaying event window that drives escalation, and the transition
// history.
type Ledger struct {
	FID uint16

	state  TenantState
	events []time.Duration // violation timestamps inside the window
	counts [numKinds]uint64
	total  uint64
	rlSeq  uint64 // packets seen while rate-limited

	History []Transition
}

// State returns the tenant's current escalation state.
func (l *Ledger) State() TenantState { return l.state }

// Count returns how many violations of kind k the tenant has accumulated
// since admission (counts survive window decay).
func (l *Ledger) Count(k Kind) uint64 { return l.counts[int(k)] }

// Total returns the tenant's all-time violation count.
func (l *Ledger) Total() uint64 { return l.total }

// Score returns the number of violations currently inside the decay window.
func (l *Ledger) Score() int { return len(l.events) }

// prune drops events older than EscalationWindow before now.
func (l *Ledger) prune(now time.Duration) {
	i := 0
	for i < len(l.events) && now-l.events[i] >= EscalationWindow {
		i++
	}
	if i > 0 {
		l.events = append(l.events[:0], l.events[i:]...)
	}
}

// PortLedger records unauthenticated violations per ingress port. Ports do
// not escalate — the guard cannot evict a wire — but the record lets an
// operator find which edge a spoofer sits behind.
type PortLedger struct {
	Port   int
	counts [numKinds]uint64
	Total  uint64
}

// Count returns the port's violation count for kind k.
func (l *PortLedger) Count(k Kind) uint64 { return l.counts[int(k)] }
