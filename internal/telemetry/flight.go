package telemetry

import "fmt"

// Verdict is the final disposition of a recorded capsule.
type Verdict uint8

// Capsule verdicts, in escalating order of refusal.
const (
	VerdictExecuted    Verdict = iota // ran to completion
	VerdictDropped                    // ran and was dropped (DROP / recirc limit / fault policy)
	VerdictPassthrough                // unadmitted FID, forwarded unexecuted
	VerdictQuarantined                // dropped: FID deactivated during a reallocation
	VerdictRevoked                    // dropped: grant revoked
	VerdictThrottled                  // dropped: recirculation fairness controller
)

// String returns the verdict's exposition name.
func (v Verdict) String() string {
	switch v {
	case VerdictExecuted:
		return "executed"
	case VerdictDropped:
		return "dropped"
	case VerdictPassthrough:
		return "passthrough"
	case VerdictQuarantined:
		return "quarantined"
	case VerdictRevoked:
		return "revoked"
	case VerdictThrottled:
		return "throttled"
	}
	return "unknown"
}

// MarshalText renders the verdict name into JSON expositions.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses a verdict name (for consumers of the JSON
// exposition; unknown names round-trip to VerdictExecuted+1 range end).
func (v *Verdict) UnmarshalText(b []byte) error {
	for c := VerdictExecuted; c <= VerdictThrottled; c++ {
		if c.String() == string(b) {
			*v = c
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown verdict %q", b)
}

// FlightEntry is one sampled capsule trace: enough to reconstruct what a
// tenant's packet did — or why it was refused — when debugging an eviction
// or a guard escalation after the fact.
type FlightEntry struct {
	Seq       uint64  `json:"seq"` // recorder-local sequence number
	FID       uint16  `json:"fid"`
	Epoch     uint8   `json:"epoch"` // grant epoch the capsule executed against
	Verdict   Verdict `json:"verdict"`
	Stages    uint16  `json:"stages"` // stage slots traversed
	Passes    uint8   `json:"passes"` // pipeline passes (recirculations + 1)
	Faulted   bool    `json:"faulted,omitempty"`
	Addr      uint32  `json:"addr"`                 // final memory address register
	FaultAddr uint32  `json:"fault_addr,omitempty"` // faulting address, when Faulted
	// Live is resolved at snapshot time against the runtime's admission rows:
	// true iff (FID, Epoch) is still the currently installed grant. A
	// revoked or superseded grant's entries are therefore never live.
	Live bool `json:"live"`
}

// Flight-recorder defaults: one entry per DefaultFlightPeriod executed
// capsules is recorded (refusals are always recorded), into a ring of
// DefaultFlightSize entries.
const (
	DefaultFlightSize   = 256
	DefaultFlightPeriod = 32
)

// FlightRecorder is a fixed-size ring of sampled capsule traces, written by
// the runtime that executes capsules and read by Registry.Snapshot — both on
// the simulation goroutine, so it needs no lock. Record never allocates.
type FlightRecorder struct {
	period uint64
	tick   uint64 // sampling clock
	ring   []FlightEntry
	next   int
	total  uint64
}

// NewFlightRecorder returns a recorder with a ring of size entries, sampling
// one in period executed capsules. size and period are clamped to at least 1.
func NewFlightRecorder(size int, period uint64) *FlightRecorder {
	return &FlightRecorder{period: max(period, 1), ring: make([]FlightEntry, max(size, 1))}
}

// ShouldSample advances the sampling clock and reports whether this capsule
// is due for recording.
func (f *FlightRecorder) ShouldSample() bool {
	f.tick++
	return f.tick%f.period == 0
}

// Record stores one entry, overwriting the oldest when the ring is full. Seq
// is filled in by the recorder.
func (f *FlightRecorder) Record(e FlightEntry) {
	f.total++
	e.Seq = f.total
	f.ring[f.next] = e
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
}

// Recorded returns the total entries ever recorded (including overwritten).
func (f *FlightRecorder) Recorded() uint64 { return f.total }

// Entries returns a copy of the ring contents, oldest first.
func (f *FlightRecorder) Entries() []FlightEntry {
	if f.total < uint64(len(f.ring)) {
		return append([]FlightEntry(nil), f.ring[:f.total]...)
	}
	return append(append([]FlightEntry(nil), f.ring[f.next:]...), f.ring[:f.next]...)
}
