package fabric

// Phase is a write's phase, named for the tests in package fabric_test.
type Phase = phase

// The phases a write can wait in.
const (
	PhaseQueued       = queued
	PhaseInvalidating = invalidating
	PhaseCommitting   = committing
)

func (p phase) String() string {
	return [...]string{"queued", "invalidating", "committing", "acked"}[p]
}

// WritePhase reports the phase of the Put numbered seq: acked once the write
// is neither in flight nor queued.
func (c *CoherentCache) WritePhase(seq uint32) Phase {
	for _, w := range c.writing {
		for ; w != nil; w = w.next {
			if w.seq == seq {
				return w.phase
			}
		}
	}
	return acked
}

// HomeState names the state of the home link's recovery.
func (c *CoherentCache) HomeState() string {
	return [...]string{"healthy", "degraded", "scrubbing", "confirming", "undraining"}[c.homeState]
}
