package policy

import "time"

// Observation is what one switch reports of itself at one instant — the
// signals engines decide on, built by switchd.Node.Observe from the books
// and counters themselves. Cumulative counters are carried as totals; rates
// are derived against the previous observation (by the Loop) so engines stay
// stateless where possible.
type Observation struct {
	At time.Duration // virtual time of the observation

	// Allocator state (exported as activermt_alloc_*).
	Fragmentation     float64
	Utilization       float64
	Tenants           int
	QuarantinedBlocks int

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
