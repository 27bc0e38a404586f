// Package isa defines the ActiveRMT instruction set: opcodes, their wire
// encoding, the in-memory program model, and a text assembler/disassembler.
//
// The instruction set follows Appendix A of the SIGCOMM '23 paper "Memory
// Management in ActiveRMT". Each instruction occupies two bytes on the wire:
// a one-byte opcode and a one-byte flag. The paper leaves the flag's bit
// layout unspecified; this implementation defines it as
//
//	bit 7      executed ("discard this header at the parser")
//	bits 4-6   label id (0 = unlabeled; branch targets)
//	bits 0-3   operand (data-field index, branch-target label, or increment)
//
// COPY_X_Y mnemonics are normalized to "destination <- source". (The paper's
// appendix is internally inconsistent on this point; dest-first matches the
// narrative accompanying its Listing 2.)
package isa

import "fmt"

// Opcode identifies an ActiveRMT instruction. The zero value is NOP so that
// zero-filled packet regions decode into harmless instructions.
type Opcode uint8

// Instruction opcodes, grouped as in Appendix A of the paper.
const (
	// Special (Appendix A.6).
	OpNop Opcode = iota // NOP: skip this stage
	OpEOF               // EOF: end of active program (terminates parsing)

	// Data copying (Appendix A.1).
	OpMbrLoad         // MBR  <- data[operand]
	OpMbrStore        // data[operand] <- MBR
	OpMbr2Load        // MBR2 <- data[operand]
	OpMarLoad         // MAR  <- data[operand]
	OpCopyMbr2Mbr     // MBR2 <- MBR
	OpCopyMbrMbr2     // MBR  <- MBR2
	OpCopyMarMbr      // MAR  <- MBR
	OpCopyMbrMar      // MBR  <- MAR
	OpCopyHashdataMbr // hashdata[operand] <- MBR
	OpCopyHashdataMbr2
	OpHashdata5Tuple // hashdata <- packet 5-tuple

	// Data manipulation (Appendix A.2).
	OpMbrAddMbr2    // MBR <- MBR + MBR2
	OpMarAddMbr     // MAR <- MAR + MBR
	OpMarAddMbr2    // MAR <- MAR + MBR2
	OpMarMbrAddMbr2 // MAR <- MBR + MBR2
	OpMbrSubMbr2    // MBR <- MBR - MBR2
	OpBitAndMarMbr  // MAR <- MAR & MBR
	OpBitOrMbrMbr2  // MBR <- MBR | MBR2
	OpMbrEqualsMbr2 // MBR <- MBR ^ MBR2 (zero iff equal)
	OpMbrEqualsData // MBR <- MBR ^ data[operand]
	OpMax           // MBR <- max(MBR, MBR2)
	OpMin           // MBR <- min(MBR, MBR2)
	OpRevMin        // MBR2 <- min(MBR, MBR2)
	OpSwapMbrMbr2   // MBR <-> MBR2
	OpMbrNot        // MBR <- ^MBR

	// Control flow (Appendix A.3).
	OpReturn // mark program complete; forward to resolved destination
	OpCRet   // RETURN if MBR != 0
	OpCRetI  // RETURN if MBR == 0
	OpCJump  // jump to label <operand> if MBR != 0
	OpCJumpI // jump to label <operand> if MBR == 0
	OpUJump  // unconditional jump to label <operand>

	// Memory access (Appendix A.4). All use MAR as the address and are
	// subject to TCAM range protection; reads and writes advance MAR by
	// one word (per the paper's Section 3.4 narrative).
	OpMemWrite      // mem[MAR] <- MBR; MAR++
	OpMemRead       // MBR <- mem[MAR]; MAR++
	OpMemIncrement  // mem[MAR] += max(operand,1); MBR <- mem[MAR]
	OpMemMinRead    // MBR <- min(mem[MAR], MBR)
	OpMemMinReadInc // mem[MAR]++; MBR <- mem[MAR]; MBR2 <- min(MBR, MBR2)

	// Packet forwarding (Appendix A.5).
	OpDrop   // drop the packet
	OpFork   // clone the packet and continue execution (costs recirculation)
	OpSetDst // destination port <- MBR
	OpRts    // return to sender (swap src/dst; redirect)
	OpCRts   // RTS if MBR != 0

	// Special (Appendix A.6, continued).
	OpAddrMask   // MAR <- MAR & mask(fid, next access)
	OpAddrOffset // MAR <- MAR + offset(fid, next access)
	OpHash       // MAR <- crc32(hashdata) (Tofino hash unit)

	numOpcodes // sentinel; keep last
)

// NumOpcodes is the count of defined opcodes; opcodes >= NumOpcodes are
// invalid on the wire.
const NumOpcodes = int(numOpcodes)

// opInfo is static metadata about one opcode.
type opInfo struct {
	name       string
	memory     bool // accesses stage register memory
	branch     bool // operand is a branch-target label
	ingress    bool // must execute in the ingress pipeline to avoid recirculation
	hasOperand bool // operand field is meaningful
}

var opTable = [numOpcodes]opInfo{
	OpNop: {name: "NOP"},
	OpEOF: {name: "EOF"},

	OpMbrLoad:          {name: "MBR_LOAD", hasOperand: true},
	OpMbrStore:         {name: "MBR_STORE", hasOperand: true},
	OpMbr2Load:         {name: "MBR2_LOAD", hasOperand: true},
	OpMarLoad:          {name: "MAR_LOAD", hasOperand: true},
	OpCopyMbr2Mbr:      {name: "COPY_MBR2_MBR"},
	OpCopyMbrMbr2:      {name: "COPY_MBR_MBR2"},
	OpCopyMarMbr:       {name: "COPY_MAR_MBR"},
	OpCopyMbrMar:       {name: "COPY_MBR_MAR"},
	OpCopyHashdataMbr:  {name: "COPY_HASHDATA_MBR", hasOperand: true},
	OpCopyHashdataMbr2: {name: "COPY_HASHDATA_MBR2", hasOperand: true},
	OpHashdata5Tuple:   {name: "COPY_HASHDATA_5TUPLE"},

	OpMbrAddMbr2:    {name: "MBR_ADD_MBR2"},
	OpMarAddMbr:     {name: "MAR_ADD_MBR"},
	OpMarAddMbr2:    {name: "MAR_ADD_MBR2"},
	OpMarMbrAddMbr2: {name: "MAR_MBR_ADD_MBR2"},
	OpMbrSubMbr2:    {name: "MBR_SUBTRACT_MBR2"},
	OpBitAndMarMbr:  {name: "BIT_AND_MAR_MBR"},
	OpBitOrMbrMbr2:  {name: "BIT_OR_MBR_MBR2"},
	OpMbrEqualsMbr2: {name: "MBR_EQUALS_MBR2"},
	OpMbrEqualsData: {name: "MBR_EQUALS_DATA", hasOperand: true},
	OpMax:           {name: "MAX"},
	OpMin:           {name: "MIN"},
	OpRevMin:        {name: "REVMIN"},
	OpSwapMbrMbr2:   {name: "SWAP_MBR_MBR2"},
	OpMbrNot:        {name: "MBR_NOT"},

	OpReturn: {name: "RETURN"},
	OpCRet:   {name: "CRET"},
	OpCRetI:  {name: "CRETI"},
	OpCJump:  {name: "CJUMP", branch: true, hasOperand: true},
	OpCJumpI: {name: "CJUMPI", branch: true, hasOperand: true},
	OpUJump:  {name: "UJUMP", branch: true, hasOperand: true},

	OpMemWrite:      {name: "MEM_WRITE", memory: true},
	OpMemRead:       {name: "MEM_READ", memory: true},
	OpMemIncrement:  {name: "MEM_INCREMENT", memory: true, hasOperand: true},
	OpMemMinRead:    {name: "MEM_MINREAD", memory: true},
	OpMemMinReadInc: {name: "MEM_MINREADINC", memory: true},

	OpDrop:   {name: "DROP"},
	OpFork:   {name: "FORK"},
	OpSetDst: {name: "SET_DST", ingress: true},
	OpRts:    {name: "RTS", ingress: true},
	OpCRts:   {name: "CRTS", ingress: true},

	OpAddrMask:   {name: "ADDR_MASK"},
	OpAddrOffset: {name: "ADDR_OFFSET"},
	OpHash:       {name: "HASH"},
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return int(op) < NumOpcodes }

// String returns the paper's mnemonic for the opcode.
func (op Opcode) String() string {
	if !op.Valid() {
		return fmt.Sprintf("OP(%d)", uint8(op))
	}
	return opTable[op].name
}

// AccessesMemory reports whether the opcode reads or writes stage register
// memory (and is therefore subject to TCAM range protection and to the
// one-access-per-stage RMT constraint).
func (op Opcode) AccessesMemory() bool { return op.Valid() && opTable[op].memory }

// IsBranch reports whether the opcode's operand names a branch-target label.
func (op Opcode) IsBranch() bool { return op.Valid() && opTable[op].branch }

// IngressOnly reports whether the opcode must execute in the ingress
// pipeline to avoid a recirculation (e.g. RTS: ports cannot be changed at
// egress on Tofino-like devices).
func (op Opcode) IngressOnly() bool { return op.Valid() && opTable[op].ingress }

// HasOperand reports whether the opcode consumes its operand bits.
func (op Opcode) HasOperand() bool { return op.Valid() && opTable[op].hasOperand }

// OpcodeByName resolves a paper mnemonic (e.g. "MEM_READ") to its opcode.
// Mnemonics of the form NAME_<n> with a trailing data-field ordinal (such as
// MBR_EQUALS_DATA_1) are resolved by the assembler, not here.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

var nameToOp = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := Opcode(0); op < numOpcodes; op++ {
		m[opTable[op].name] = op
	}
	return m
}()
