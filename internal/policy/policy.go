// Package policy centralizes every control-plane setting the closed loop
// re-decides at runtime: the controller's snapshot window, the guard's
// escalation rungs, the fabric's probe timers and the periodic corruption
// sweep. Their defaults live here as the Default*
// values and the owning layers derive their own defaults from them, so the
// one Loop can re-decide any of them from observations of the switch.
//
// The contract that keeps the loop optional: with no Loop attached every
// layer runs DefaultDecisions, the historical constants, exactly as the code
// hard-wired them before this package existed.
package policy

import "time"

// Re-homed constants: the defaults of every setting the loop can re-decide.
// Each names the package and behavior it used to be hard-coded in; changing
// one here changes the system-wide default. Settings the loop never varies
// (the controller's table-op and compute costs, the guard's window and warn
// rung, the probe miss threshold, the allocator's search tuning, the chaos
// library's schedule) are plain constants beside their use.
const (
	// Realloc snapshot window (was switchd.DefaultCosts).
	DefaultSnapshotTimeout = 500 * time.Millisecond

	// Guard escalation ladder (was guard.DefaultPolicy). The warn rung is
	// the floor the tightened ladder stays above; the loop never moves it.
	DefaultWarnAt        = 3
	DefaultRateLimitAt   = 8
	DefaultQuarantineAt  = 16
	DefaultEvictAt       = 32
	DefaultRateLimitPass = 4

	// Fabric health probing (was fabric.NewHealth).
	DefaultProbeInterval = 10 * time.Millisecond
	DefaultRestoreDelay  = 2 * time.Millisecond
)

// GuardThresholds are the escalation rungs of guard.Policy that the loop
// re-decides (guard embeds this type; guard depends on policy, not the
// other way around).
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

// Decisions is one complete set of control-plane settings. The loop emits a
// full set every Decide; switchd.Node.ApplyPolicy pushes the parts a switch
// owns.
type Decisions struct {
	SnapshotTimeout time.Duration // client snapshot window before forced reactivation
	Guard           GuardThresholds
	Fabric          FabricTimers
	SweepEvery      time.Duration // >0 arms a periodic corruption sweep
}

// DefaultDecisions returns the exact historical constants: periodic sweeps
// off, every timer and threshold as the layers hard-coded them
// before this package existed.
func DefaultDecisions() Decisions {
	return Decisions{
		SnapshotTimeout: DefaultSnapshotTimeout,
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
	}
}

// Observation is what one switch reports of itself at one instant — the
// signals the loop decides on, built by switchd.Node.Observe from the books
// and counters themselves. Cumulative counters are carried as totals; the
// loop derives rates and deltas against its previous observation.
type Observation struct {
	At time.Duration // virtual time of the observation

	// Guard pressure (exported as activermt_guard_*_violations_total, both
	// attributions summed).
	Violations    uint64
	ViolationRate float64 // violations/sec since the previous observation

	// Controller realloc health (exported as activermt_ctrl_*).
	SnapshotTimeouts    uint64
	SnapshotEscalations uint64
	CorruptQuarantines  uint64 // blocks quarantined by corruption sweeps

	// Fabric link health (exported as activermt_fabric_link_flaps_total);
	// zero on a single switch.
	LinkFlaps uint64
}
