// Package policy centralizes every control-plane setting an engine
// re-decides at runtime behind one typed interface: the controller's
// snapshot window, the guard's escalation rungs, the fabric's probe timers,
// the periodic corruption sweep and online defragmentation. Their defaults
// live here as the Default* values and the owning layers derive their own
// defaults from them, so a policy Engine can re-decide any of them from
// telemetry observations.
//
// The contract that keeps the refactor safe: Static{} emits exactly the
// defaults on every Decide call, so a system driven by the static engine is
// bit-identical to one with no engine at all.
package policy

import "time"

// Re-homed constants: the defaults of every setting an engine can re-decide.
// Each names the package and behavior it used to be hard-coded in; changing
// one here changes the system-wide default. Settings no engine varies (the
// controller's table-op and compute costs, the guard's window and warn
// rung, the probe miss threshold, the allocator's search tuning, the chaos
// library's schedule) are plain constants beside their use.
const (
	// Realloc snapshot window (was switchd.DefaultCosts).
	DefaultSnapshotTimeout = 500 * time.Millisecond

	// Guard escalation ladder (was guard.DefaultPolicy). The warn rung is
	// the floor the tightened ladder stays above; no engine moves it.
	DefaultWarnAt        = 3
	DefaultRateLimitAt   = 8
	DefaultQuarantineAt  = 16
	DefaultEvictAt       = 32
	DefaultRateLimitPass = 4

	// Fabric health probing (was fabric.NewHealth).
	DefaultProbeInterval = 10 * time.Millisecond
	DefaultRestoreDelay  = 2 * time.Millisecond

	// Online defragmentation. Disabled by default: the static system never
	// migrates on its own. TriggerFrag/TargetFrag form a hysteresis band on
	// activermt_alloc_fragmentation; MaxMoves bounds migrations per pass so
	// one pass cannot monopolize the control plane.
	DefaultDefragTrigger = 0.40
	DefaultDefragTarget  = 0.15
	DefaultDefragMoves   = 4

	// evalInterval is the cadence at which a Loop re-observes the switch
	// and re-decides.
	evalInterval = 100 * time.Millisecond
)

// ControllerTiming is the switchd controller's realloc snapshot window.
type ControllerTiming struct {
	SnapshotTimeout time.Duration // client snapshot window before forced reactivation
}

// GuardThresholds mirrors guard.Policy's escalation rungs in plain types
// (guard depends on policy, not the other way around).
type GuardThresholds struct {
	RateLimitAt   int
	QuarantineAt  int
	EvictAt       int
	RateLimitPass int // 1-in-N pass rate while rate-limited
}

// FabricTimers drives the health prober.
type FabricTimers struct {
	ProbeInterval time.Duration
	RestoreDelay  time.Duration
}

// DefragDecision controls telemetry-driven online defragmentation.
type DefragDecision struct {
	Enabled     bool
	TriggerFrag float64 // start migrating when fragmentation >= this
	TargetFrag  float64 // hysteresis: stop once fragmentation < this
	MaxMoves    int     // tenant migrations per defrag pass
}

// Decisions is one complete set of control-plane settings. An Engine emits
// a full set every Decide; appliers push the parts they own.
type Decisions struct {
	Controller ControllerTiming
	Guard      GuardThresholds
	Fabric     FabricTimers
	SweepEvery time.Duration // >0 arms a periodic corruption sweep
	Defrag     DefragDecision
}

// DefaultDecisions returns the exact historical constants: periodic sweeps
// off, defragmentation off, every timer and threshold as the layers
// hard-coded them before this package existed.
func DefaultDecisions() Decisions {
	return Decisions{
		Controller: ControllerTiming{SnapshotTimeout: DefaultSnapshotTimeout},
		Guard: GuardThresholds{
			RateLimitAt:   DefaultRateLimitAt,
			QuarantineAt:  DefaultQuarantineAt,
			EvictAt:       DefaultEvictAt,
			RateLimitPass: DefaultRateLimitPass,
		},
		Fabric: FabricTimers{
			ProbeInterval: DefaultProbeInterval,
			RestoreDelay:  DefaultRestoreDelay,
		},
		Defrag: DefragDecision{
			TriggerFrag: DefaultDefragTrigger,
			TargetFrag:  DefaultDefragTarget,
			MaxMoves:    DefaultDefragMoves,
		},
	}
}

// Engine decides control-plane settings from telemetry observations.
// Decide must be deterministic in its inputs: the loop is driven from
// virtual time and the whole system replays per seed.
type Engine interface {
	Name() string
	Decide(obs Observation) Decisions
}
