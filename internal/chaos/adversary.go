package chaos

import (
	"math/rand"
	"sort"
	"time"

	"activermt/internal/isa"
	"activermt/internal/netsim"
	"activermt/internal/packet"
)

// Adversary is a netsim endpoint that emits hostile active traffic: forged
// identities, malformed capsules, recirculation bombs, and out-of-bounds
// memory probes. It models the adversarial tenant of the threat model — a
// host that completed (or skipped) admission and then deviates from the
// protocol. An adversary can be "armed" with a legitimately granted FID and
// epoch, in which case its capsules authenticate at the guard and its
// violations are charged to that tenant ledger; unarmed traffic exercises
// the port-attributed ingress checks instead.
type Adversary struct {
	eng   *netsim.Engine
	mac   packet.MAC
	swMAC packet.MAC
	port  *netsim.Port
	seq   uint32

	fid   uint16 // armed tenant identity (0 = unarmed)
	epoch uint8  // armed grant epoch echoed in capsules

	// Counters.
	Sent    uint64
	Replies uint64
}

// NewAdversary builds an adversary host. Attach it to a switch port before
// sending.
func NewAdversary(eng *netsim.Engine, mac, swMAC packet.MAC) *Adversary {
	return &Adversary{eng: eng, mac: mac, swMAC: swMAC}
}

// Attach wires the adversary's switch-facing port.
func (a *Adversary) Attach(p *netsim.Port) { a.port = p }

// MAC returns the adversary's host address.
func (a *Adversary) MAC() packet.MAC { return a.mac }

// Arm gives the adversary a tenant identity: subsequent authenticated sends
// claim this FID and echo this grant epoch.
func (a *Adversary) Arm(fid uint16, epoch uint8) {
	a.fid = fid
	a.epoch = epoch
}

// Receive implements netsim.Endpoint; the adversary only counts replies.
func (a *Adversary) Receive(frame []byte, port *netsim.Port) { a.Replies++ }

func (a *Adversary) send(act *packet.Active) {
	if a.port == nil {
		return
	}
	f := &packet.Frame{
		Eth:    packet.EthHeader{Dst: a.swMAC, Src: a.mac, EtherType: packet.EtherTypeActive},
		Active: act,
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		return
	}
	a.Sent++
	a.port.Send(raw)
}

func (a *Adversary) sendRaw(raw []byte) {
	if a.port == nil {
		return
	}
	a.Sent++
	a.port.Send(raw)
}

func (a *Adversary) header(fid uint16, epoch uint8) packet.ActiveHeader {
	a.seq++
	h := packet.ActiveHeader{FID: fid, Opaque: uint32(epoch)}
	h.SetType(packet.TypeProgram)
	return h
}

// SendMalformed emits a capsule that decodes but fails structural
// validation: a branch to an undefined label. The guard charges it to the
// ingress port as KindMalformed.
func (a *Adversary) SendMalformed() {
	prog := &isa.Program{Name: "malformed", Instrs: []isa.Instruction{
		{Op: isa.OpUJump, Operand: 5}, // no label 5 anywhere
		{Op: isa.OpReturn},
	}}
	a.send(&packet.Active{Header: a.header(a.fid, a.epoch), Program: prog})
}

// SendTruncated emits a program capsule whose byte stream is cut mid-header,
// exercising the frame parser's short-input paths (the fuzz targets' corpus
// in live traffic). The switch drops it at decode.
func (a *Adversary) SendTruncated() {
	prog := &isa.Program{Instrs: []isa.Instruction{{Op: isa.OpNop}, {Op: isa.OpReturn}}}
	f := &packet.Frame{
		Eth:    packet.EthHeader{Dst: a.swMAC, Src: a.mac, EtherType: packet.EtherTypeActive},
		Active: &packet.Active{Header: a.header(a.fid, a.epoch), Program: prog},
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		return
	}
	// Cut into the argument header: past the initial header, short of args.
	cut := packet.EthHeaderSize + packet.InitialHeaderSize + 5
	if cut > len(raw) {
		cut = len(raw) - 1
	}
	a.sendRaw(raw[:cut])
}

// SendForged emits an innocuous program under someone else's FID with a
// guessed epoch. Unless the guess matches the victim's current 7-bit grant
// epoch, the guard rejects it as KindBadEpoch — and charges the ingress
// port, not the framed victim.
func (a *Adversary) SendForged(victim uint16, guessedEpoch uint8) {
	prog := &isa.Program{Name: "forged", Instrs: []isa.Instruction{
		{Op: isa.OpNop},
		{Op: isa.OpReturn},
	}}
	a.send(&packet.Active{Header: a.header(victim, guessedEpoch), Program: prog})
}

// SendRecircBomb emits an authenticated program of n instructions. With
// n beyond the guard's instruction budget this is an over-budget violation;
// with n just over one pipeline length it legitimately recirculates and
// drains the sender's recirculation tokens instead.
func (a *Adversary) SendRecircBomb(n int) {
	instrs := make([]isa.Instruction, 0, n)
	for i := 0; i < n-1; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.OpNop})
	}
	instrs = append(instrs, isa.Instruction{Op: isa.OpReturn})
	prog := &isa.Program{Name: "recirc-bomb", Instrs: instrs}
	a.send(&packet.Active{Header: a.header(a.fid, a.epoch), Program: prog})
}

// SendOOBWrite emits an authenticated program that loads a raw register
// address and writes at pipeline stage `stage` — a probe for the TCAM range
// protection. Addresses outside the adversary's own region fault in the
// data plane and surface as KindMemFault violations on its ledger.
func (a *Adversary) SendOOBWrite(stage int, addr, value uint32) {
	idx := stage
	if idx < 2 {
		idx += packet.NumStages // reach early stages on the second pass
	}
	instrs := make([]isa.Instruction, 0, idx+2)
	instrs = append(instrs,
		isa.Instruction{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- data[0] (value)
		isa.Instruction{Op: isa.OpMarLoad, Operand: 2}, // MAR <- data[2] (raw addr)
	)
	for len(instrs) < idx {
		instrs = append(instrs, isa.Instruction{Op: isa.OpNop})
	}
	instrs = append(instrs, isa.Instruction{Op: isa.OpMemWrite}, isa.Instruction{Op: isa.OpReturn})
	prog := &isa.Program{Name: "oob-write", Instrs: instrs}
	a.send(&packet.Active{
		Header:  a.header(a.fid, a.epoch),
		Args:    [packet.NumDataFields]uint32{value, 0, addr, 0},
		Program: prog,
	})
}

// AdversaryBurst is an injector that schedules a burst of hostile sends
// from an Adversary endpoint. Kind selects the attack:
//
//	"malformed"  capsules that fail validation (port-attributed)
//	"truncated"  byte streams cut mid-header (dropped at decode)
//	"forged"     innocuous programs under VictimFID with guessed epochs
//	"recirc"     over-budget programs (tenant-attributed when armed)
//	"oob"        raw-address writes sweeping the victim's granted regions
//
// The "oob" kind resolves the victim's installed regions lazily at apply
// time (like RegisterCorruption), so the burst targets wherever the victim
// actually landed after allocation or churn.
type AdversaryBurst struct {
	Adv       *Adversary
	Kind      string
	N         int
	Gap       time.Duration
	VictimFID uint16
	Seed      int64
}

// Name implements Injector.
func (b AdversaryBurst) Name() string { return "adversary-" + b.Kind }

// Apply schedules the burst on the system's engine.
func (b AdversaryBurst) Apply(sys *System) {
	n := b.N
	if n <= 0 {
		n = 1
	}
	rng := rand.New(rand.NewSource(b.Seed))
	// Resolve out-of-bounds targets now: one (stage, addr) probe per send,
	// swept across the victim's granted words.
	type probe struct {
		stage int
		addr  uint32
	}
	var probes []probe
	if b.Kind == "oob" && sys.Node != nil {
		regions := sys.RT.InstalledRegions(b.VictimFID)
		stages := make([]int, 0, len(regions))
		for s := range regions {
			stages = append(stages, s)
		}
		sort.Ints(stages) // map order would break scenario determinism
		for _, s := range stages {
			reg := regions[s]
			for w := reg.Lo; w < reg.Hi; w++ {
				probes = append(probes, probe{stage: s, addr: w})
			}
		}
	}
	for i := 0; i < n; i++ {
		i := i
		sys.Eng.Schedule(time.Duration(i)*b.Gap, func() {
			switch b.Kind {
			case "malformed":
				b.Adv.SendMalformed()
			case "truncated":
				b.Adv.SendTruncated()
			case "forged":
				b.Adv.SendForged(b.VictimFID, uint8(rng.Intn(int(packet.EpochMax))+1))
			case "recirc":
				// Past the device's recirculation ceiling: the guard (or
				// the recirc limiter) must refuse it.
				bomb := 2*packet.NumStages + 4
				if sys.Node != nil {
					cfg := sys.RT.Device().Config()
					bomb = cfg.MaxPasses*cfg.NumStages + 4
				}
				b.Adv.SendRecircBomb(bomb)
			case "oob":
				if len(probes) == 0 {
					b.Adv.SendOOBWrite(5, 1<<20, 0xDEAD)
					return
				}
				p := probes[i%len(probes)]
				b.Adv.SendOOBWrite(p.stage, p.addr, 0xDEAD)
			}
		})
	}
}

// Revert is a no-op: a burst already sent cannot be unsent.
func (b AdversaryBurst) Revert(sys *System) {}
