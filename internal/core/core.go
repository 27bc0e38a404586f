// Package core is the embedding facade for ActiveRMT: one object bundling
// the simulated RMT device, the active-packet runtime, and the dynamic
// memory allocator, with a synchronous API for programs that want
// runtime-programmable switching without standing up the full simulated
// network (the testbed package provides that).
//
// The flow mirrors the paper: Extract constraints from a program ->
// Allocate -> Synthesize the granted mutant -> Execute active packets.
package core

import (
	"fmt"

	"activermt/internal/alloc"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/runtime"
)

// System is a self-contained ActiveRMT switch: data plane plus allocation
// state.
type System struct {
	RT *runtime.Runtime
	AL *alloc.Allocator
}

// Config bundles the two subsystem configurations.
type Config struct {
	RMT   rmt.Config
	Alloc alloc.Config
}

// DefaultConfig mirrors the paper's switch.
func DefaultConfig() Config {
	return Config{RMT: rmt.DefaultConfig(), Alloc: alloc.DefaultConfig()}
}

// New builds a system.
func New(cfg Config) (*System, error) {
	if err := cfg.Alloc.CheckPipeline(cfg.RMT.NumStages, cfg.RMT.NumIngress, cfg.RMT.StageWords); err != nil {
		return nil, err
	}
	rt, err := runtime.New(cfg.RMT)
	if err != nil {
		return nil, err
	}
	al, err := alloc.New(cfg.Alloc)
	if err != nil {
		return nil, err
	}
	return &System{RT: rt, AL: al}, nil
}

// Deployment is an admitted service: the placement the switch granted and
// the synthesized program ready to attach to packets.
type Deployment struct {
	FID       uint16
	Placement *alloc.Placement
	Program   *isa.Program
}

// Deploy admits a program: extracts its constraints, allocates memory,
// installs protection and translation entries, and synthesizes the selected
// mutant — the entire Section 4.3 admission flow, synchronously.
func (s *System) Deploy(fid uint16, prog *isa.Program, elastic bool, specs []compiler.AccessSpec) (*Deployment, error) {
	cons, err := compiler.Extract(prog, elastic, specs)
	if err != nil {
		return nil, err
	}
	if len(cons.Accesses) == 0 {
		s.RT.AdmitStateless(fid)
		return &Deployment{FID: fid, Placement: &alloc.Placement{FID: fid}, Program: prog.Clone()}, nil
	}
	res, err := s.AL.Allocate(fid, cons)
	if err != nil {
		return nil, err
	}
	if res.Failed {
		return nil, fmt.Errorf("core: allocation failed: %s", res.Reason)
	}
	// Apply reallocations of displaced apps, then the new grant.
	for _, pl := range res.Reallocated {
		if _, err := s.RT.InstallGrant(runtime.GrantOf(pl)); err != nil {
			return nil, err
		}
	}
	if _, err := s.RT.InstallGrant(runtime.GrantOf(res.New)); err != nil {
		_, _ = s.AL.Release(fid)
		return nil, err
	}
	mut, err := compiler.Synthesize(prog, res.New.Mutant)
	if err != nil {
		return nil, err
	}
	return &Deployment{FID: fid, Placement: res.New, Program: mut}, nil
}

// Execute runs one active packet through the pipeline. The outputs are the
// runtime's scratch, valid until the next Execute (runtime.ExecuteProgram).
func (s *System) Execute(d *Deployment, args [4]uint32, flags uint16) []*runtime.Output {
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: d.FID, Flags: flags},
		Args:    args,
		Program: d.Program,
	}
	a.Header.SetType(packet.TypeProgram)
	return s.RT.ExecuteProgram(a)
}

// Utilization reports switch memory utilization.
func (s *System) Utilization() float64 { return s.AL.Utilization() }
