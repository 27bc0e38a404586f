package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"activermt/internal/netsim"
)

// seedSkew decorrelates the two directions of a duplex link without needing
// a second user-supplied seed.
const seedSkew = int64(0x5e3779b97f4a7c15)

// LinkLoss drops a fraction of frames in both directions of the duplex link
// that Link is one end of.
type LinkLoss struct {
	Link *netsim.Port
	Rate float64
	Seed int64
}

// Name implements Injector.
func (l LinkLoss) Name() string { return fmt.Sprintf("loss(%.0f%%)", l.Rate*100) }

// Apply implements Injector.
func (l LinkLoss) Apply(*System) {
	l.Link.SetLoss(l.Rate, l.Seed)
	l.Link.Peer().SetLoss(l.Rate, l.Seed^seedSkew)
}

// Revert implements Injector.
func (l LinkLoss) Revert(*System) {
	l.Link.SetLoss(0, 0)
	l.Link.Peer().SetLoss(0, 0)
}

// LinkDelay adds fixed extra latency plus uniform jitter from [0, Jitter) to
// both directions of a link. Jitter wider than the inter-frame gap reorders
// deliveries.
type LinkDelay struct {
	Link          *netsim.Port
	Extra, Jitter time.Duration
	Seed          int64
}

// Name implements Injector.
func (l LinkDelay) Name() string { return fmt.Sprintf("delay(%v+%v)", l.Extra, l.Jitter) }

// Apply implements Injector.
func (l LinkDelay) Apply(*System) {
	l.Link.SetExtraDelay(l.Extra, l.Jitter, l.Seed)
	l.Link.Peer().SetExtraDelay(l.Extra, l.Jitter, l.Seed^seedSkew)
}

// Revert implements Injector.
func (l LinkDelay) Revert(*System) {
	l.Link.SetExtraDelay(0, 0, 0)
	l.Link.Peer().SetExtraDelay(0, 0, 0)
}

// Partition takes a set of ports administratively down: one port, both ends
// of a duplex link ({l, l.Peer()}), or every port on one side of a cut (e.g.
// fabric.SpinePorts, the spine kill). A one-sided down kills both directions
// of its link: sends from the port are dropped at the port, frames in flight
// toward it on delivery. Revert brings every port back up.
type Partition struct {
	Ports []*netsim.Port
}

// Name implements Injector.
func (p Partition) Name() string { return fmt.Sprintf("partition(%d)", len(p.Ports)) }

// Apply implements Injector.
func (p Partition) Apply(*System) {
	for _, port := range p.Ports {
		port.SetDown(true)
	}
}

// Revert implements Injector.
func (p Partition) Revert(*System) {
	for _, port := range p.Ports {
		port.SetDown(false)
	}
}

// ControllerCrash kills the control plane of the system's switch (losing its
// queue, client directory, and allocation books; the data plane keeps
// running). Revert restarts it, rebuilding allocation state from the switch
// tables. A fabric caller aims it at one device by setting System.Node.
type ControllerCrash struct{}

// Name implements Injector.
func (ControllerCrash) Name() string { return "controller-crash" }

// Apply implements Injector.
func (ControllerCrash) Apply(sys *System) { sys.Ctrl.Crash() }

// Revert implements Injector.
func (ControllerCrash) Revert(sys *System) { sys.Ctrl.Restart() }

// RegisterCorruption flips Bits random bits in one stage's register SRAM
// (soft errors). The parity kept by the write path is left stale, so the
// damage is invisible to the data plane until a controller sweep
// (SweepAndRepair) finds the mismatches. When PreferOwned is set and the
// stage has installed regions, corrupted addresses are drawn from them, so
// the fault lands on live application state.
type RegisterCorruption struct {
	Stage       int
	Bits        int
	Seed        int64
	PreferOwned bool
}

// Name implements Injector.
func (r RegisterCorruption) Name() string {
	return fmt.Sprintf("corrupt(stage%d,%db)", r.Stage, r.Bits)
}

// Apply implements Injector.
func (r RegisterCorruption) Apply(sys *System) {
	rng := rand.New(rand.NewSource(r.Seed))
	regs := sys.RT.Device().Stage(r.Stage).Registers
	var owned [][2]uint32 // [lo, hi) candidate ranges
	if r.PreferOwned {
		for _, fid := range sys.RT.AdmittedFIDs() {
			if reg, ok := sys.RT.InstalledRegions(fid)[r.Stage]; ok && reg.Hi > reg.Lo {
				owned = append(owned, [2]uint32{reg.Lo, reg.Hi})
			}
		}
	}
	for i := 0; i < r.Bits; i++ {
		var addr uint32
		if len(owned) > 0 {
			span := owned[rng.Intn(len(owned))]
			addr = span[0] + uint32(rng.Int63n(int64(span[1]-span[0])))
		} else {
			addr = uint32(rng.Int63n(int64(regs.Len())))
		}
		_ = regs.CorruptBit(addr, uint(rng.Intn(32)))
	}
}

// Revert implements Injector: corruption is one-shot, repair happens
// in-protocol (sweep, quarantine, reallocate).
func (RegisterCorruption) Revert(*System) {}
