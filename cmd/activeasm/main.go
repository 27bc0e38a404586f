// Command activeasm is the ActiveRMT assembler and allocation explorer: it
// assembles program text to bytecode, disassembles bytecode, extracts
// allocation constraints, and enumerates mutants under both policies.
//
// Usage:
//
//	activeasm -asm prog.s            # assemble, print bytecode hex
//	activeasm -dis 1a002b00...       # disassemble hex bytecode
//	activeasm -info prog.s           # constraints, bounds, mutant counts
//	activeasm -mutants prog.s -n 10  # list the first N mutants
//	activeasm -trace prog.s -args 1,2,3,4
//	                                 # deploy on a scratch switch and print
//	                                 # the per-stage execution trace
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/testbed"
)

func main() {
	asm := flag.String("asm", "", "assemble the given source file")
	dis := flag.String("dis", "", "disassemble the given hex bytecode")
	info := flag.String("info", "", "print constraints and mutant counts for a source file")
	mutants := flag.String("mutants", "", "list mutants for a source file")
	trace := flag.String("trace", "", "execute a source file on a scratch switch and trace it")
	argsFlag := flag.String("args", "0,0,0,0", "comma-separated data fields for -trace")
	n := flag.Int("n", 10, "max mutants to list")
	elastic := flag.Bool("elastic", true, "treat the program's memory demands as elastic")
	flag.Parse()

	switch {
	case *asm != "":
		p := load(*asm)
		fmt.Println(hex.EncodeToString(p.Encode(nil)))
	case *dis != "":
		b, err := hex.DecodeString(*dis)
		die(err)
		p, _, err := isa.DecodeProgram(b)
		die(err)
		fmt.Print(isa.Disassemble(p))
	case *info != "":
		p := load(*info)
		printInfo(p, *elastic)
	case *mutants != "":
		p := load(*mutants)
		cons, err := compiler.Extract(p, *elastic, nil)
		die(err)
		for _, pol := range []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained} {
			ms, _, err := alloc.DefaultShape().Mutants(cons, pol)
			if err != nil {
				fmt.Printf("%s: infeasible (%v)\n", pol, err)
				continue
			}
			fmt.Printf("%s: %d mutants\n", pol, len(ms))
			for i, m := range ms {
				if i >= *n {
					fmt.Printf("  ... %d more\n", len(ms)-*n)
					break
				}
				fmt.Printf("  %4d: %v\n", i, m)
			}
		}
	case *trace != "":
		p := load(*trace)
		runTrace(os.Stdout, p, *argsFlag, *elastic)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runTrace admits the program on a scratch switch through its controller
// (memory demands default to one block per access unless elastic) and
// prints to w each stage slot as the linked mutant executes.
func runTrace(w io.Writer, p *isa.Program, argsCSV string, elastic bool) {
	tb, err := testbed.New(testbed.DefaultConfig())
	die(err)
	svc := &client.Service{Name: p.Name, Templates: map[string]*isa.Program{"main": p}, Elastic: elastic}
	if !elastic {
		for range p.MemoryAccessIndices() {
			svc.Specs = append(svc.Specs, compiler.AccessSpec{Demand: 1})
		}
	}
	cl := tb.AddClient(1, svc)
	die(cl.RequestAndWait(5 * time.Second))
	pl := cl.Placement()
	fmt.Fprintf(w, "deployed: mutant %v\n", pl.Mutant)
	for i, ap := range pl.Accesses {
		fmt.Fprintf(w, "  access %d: logical stage %d, region [%d,%d)\n", i, ap.Logical, ap.Range.Lo, ap.Range.Hi)
	}

	var args [4]uint32
	for i, tok := range strings.SplitN(argsCSV, ",", 4) {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 0, 32)
		die(err)
		args[i] = uint32(v)
	}
	// Client-side translation convention: if data[2] indexes the first
	// access's region, offset it like the example apps do.
	if len(pl.Accesses) > 0 {
		args[2] += pl.Accesses[0].Range.Lo
	}

	fmt.Fprintf(w, "\nexecuting with data=%v\n", args)
	fmt.Fprintln(w, " slot stage  instruction            MAR        MBR        MBR2   state")
	tb.RT.Device().SetTrace(func(ev rmt.TraceEvent) {
		state := ""
		if ev.Skipped {
			state = "skipped"
		}
		if ev.Complete {
			state = "complete"
		}
		if ev.Dropped {
			state = "DROPPED"
		}
		fmt.Fprintf(w, "  %3d   %2d   %-20s %10d %10d %10d   %s\n",
			ev.Logical, ev.Stage, ev.In.String(), ev.MAR, ev.MBR, ev.MBR2, state)
	})
	a := &packet.Active{Header: packet.ActiveHeader{FID: cl.FID()}, Args: args, Program: cl.Program("main")}
	a.Header.SetType(packet.TypeProgram)
	for i, out := range tb.RT.ExecuteProgram(a) {
		fmt.Fprintf(w, "\noutput %d: data=%v to-sender=%v dropped=%v latency=%v passes=%d\n",
			i, out.Active.Args, out.ToSender, out.Dropped, out.Latency, out.Passes)
	}
}

func load(path string) *isa.Program {
	src, err := os.ReadFile(path)
	die(err)
	p, err := isa.Assemble(path, string(src))
	die(err)
	return p
}

func printInfo(p *isa.Program, elastic bool) {
	fmt.Printf("program: %s (%d instructions, %d bytes on the wire)\n", p.Name, p.Len(), p.WireLen())
	fmt.Printf("memory accesses at: %v\n", p.MemoryAccessIndices())
	fmt.Printf("ingress-only instructions at: %v\n", p.IngressOnlyIndices())
	cons, err := compiler.Extract(p, elastic, nil)
	die(err)
	for _, pol := range []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained} {
		ms, b, err := alloc.DefaultShape().Mutants(cons, pol)
		if err != nil {
			fmt.Printf("%-18s infeasible: %v\n", pol.String()+":", err)
			continue
		}
		fmt.Printf("%-18s LB=%v UB=%v gaps=%v mutants=%d\n",
			pol.String()+":", b.LB, b.UB, b.Gap, len(ms))
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "activeasm:", err)
		os.Exit(1)
	}
}
