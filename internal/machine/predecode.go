package machine

import (
	"errors"
	"fmt"

	"faultspace/internal/isa"
)

// This file implements the pre-decoded execution engine: the program is
// lowered once into a dense, dispatch-ready instruction stream and Run
// executes it in a tight loop with the program counter and cycle counter
// held in locals, instead of paying the full per-Step overhead (status
// check, timer check, hook checks, operand masking) on every cycle.
//
// The fast path is an implementation detail, never a semantic one: it is
// only taken when no hooks are installed, it replicates Step's effects
// bit for bit, and every shortcut is pinned by the differential fuzz
// test (FuzzPredecodeSelfModify) and the strategy-equivalence matrix
// (DESIGN.md invariant 11).
//
// Two machine models use it:
//
//   - The Harvard machines of campaigns (New) fetch from the fault-immune
//     ROM, so the lowered stream is built once and can never go stale —
//     faults only hit RAM and registers.
//   - Von Neumann machines (NewVonNeumann) map the encoded program into
//     RAM and fetch by decoding it, so stores and injected faults CAN
//     corrupt the code region. The lowered stream then acts as a decode
//     cache with precise per-instruction invalidation: any write
//     overlapping an instruction's bytes clears its valid bit, and a
//     dirtied instruction falls back to plain decode-from-RAM on every
//     subsequent fetch, so outcomes never change.

// preIns is one lowered instruction: operands pre-masked and immediates
// pre-converted so the dispatch loop does no per-cycle bit fiddling.
// Register indices are masked to the architectural 4 bits at lowering
// time, which also lets the compiler elide bounds checks on the
// register-file accesses in runChunk.
type preIns struct {
	op         isa.Op
	rd, rs, rt uint8
	imm        int32  // signed immediate (Slti)
	immU       uint32 // unsigned immediate: address offset, branch target, shift count
	imm2U      uint32 // store-immediate value (Swi/Sbi)
}

// lower converts a decoded instruction to its dispatch-ready form.
func lower(ins isa.Instruction) preIns {
	p := preIns{
		op:    ins.Op,
		rd:    ins.Rd & 15,
		rs:    ins.Rs & 15,
		rt:    ins.Rt & 15,
		imm:   ins.Imm,
		immU:  uint32(ins.Imm),
		imm2U: uint32(ins.Imm2),
	}
	switch ins.Op {
	case isa.OpShli, isa.OpShri:
		// The shift count is static; mask it once here instead of per cycle.
		p.immU &= 31
	}
	return p
}

// preProg is the pre-decoded form of a machine's program.
type preProg struct {
	code []preIns
	// valid is the per-instruction coherence bitset of von Neumann
	// machines: bit i set means code[i] faithfully lowers the current RAM
	// bytes of instruction i. Harvard machines fetch from immutable ROM
	// and leave valid nil. A cleared bit is never re-set: the dirtied
	// instruction decodes plain from RAM for the rest of the run.
	valid []uint64
	// invalidations counts invalidation events: writes (stores, bit
	// flips, state restores) that clobbered at least one cached
	// instruction. Exposed via PredecodeInvalidations for telemetry.
	invalidations uint64
}

// SetPredecode enables or disables the pre-decoded fast path. Enabling
// is idempotent; disabling drops the lowered stream so Run falls back to
// the plain Step loop. The setting never changes observable machine
// behavior — only how fast Run gets there.
func (m *Machine) SetPredecode(on bool) {
	if !on {
		m.pre = nil
		return
	}
	if m.pre != nil {
		return
	}
	m.pre = m.buildPre()
}

// PredecodeEnabled reports whether the pre-decoded fast path is active.
func (m *Machine) PredecodeEnabled() bool { return m.pre != nil }

// PredecodeInvalidations returns the number of predecode-cache
// invalidation events on this machine. Harvard machines always report 0:
// their ROM is fault-immune, so the cache can never go stale — only von
// Neumann machines (NewVonNeumann) invalidate.
func (m *Machine) PredecodeInvalidations() uint64 {
	if m.pre == nil {
		return 0
	}
	return m.pre.invalidations
}

// buildPre lowers the machine's program into a preProg. For von Neumann
// machines the source of truth is RAM: instructions whose bytes do not
// decode are left invalid and fall to the plain path (which raises
// ExcIllegalOp on fetch, same as executing them would).
func (m *Machine) buildPre() *preProg {
	p := &preProg{code: make([]preIns, m.codeLen)}
	if !m.vn {
		for i, ins := range m.rom {
			p.code[i] = lower(ins)
		}
		return p
	}
	p.valid = make([]uint64, (int(m.codeLen)+63)/64)
	for i := uint32(0); i < m.codeLen; i++ {
		ins, exc := m.vnDecode(i)
		if exc != ExcNone {
			continue
		}
		p.code[i] = lower(ins)
		p.valid[i>>6] |= 1 << (i & 63)
	}
	return p
}

// NewVonNeumann creates a machine whose program lives in RAM: the
// encoded form of prog (8 bytes per instruction, see isa.Encode) is
// mapped at codeBase on top of the RAM image, and every fetch decodes
// the current RAM bytes — so stores and injected faults can corrupt,
// and self-modifying programs can rewrite, the code region. PC remains
// an instruction index: index i fetches RAM[codeBase+8i : codeBase+8i+8].
// Bytes that fail to decode raise ExcIllegalOp at fetch.
//
// Campaigns never use this mode — the paper's machine model (§II-C) and
// the campaign identity hash are defined over the fault-immune-ROM
// Harvard machine — it exists to differentially test the predecode
// cache's invalidation against the plain decoder.
func NewVonNeumann(cfg Config, prog []isa.Instruction, image []byte, codeBase uint32) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(prog) == 0 {
		return nil, errors.New("machine: empty program")
	}
	code, err := isa.EncodeProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("machine: von Neumann program: %w", err)
	}
	if int(codeBase)+len(code) > cfg.RAMSize {
		return nil, fmt.Errorf("machine: code region [%d, %d) outside RAM of %d bytes",
			codeBase, int(codeBase)+len(code), cfg.RAMSize)
	}
	if len(image) > cfg.RAMSize {
		return nil, fmt.Errorf("machine: image size %d exceeds RAM size %d", len(image), cfg.RAMSize)
	}
	maxSerial := cfg.MaxSerial
	if maxSerial == 0 {
		maxSerial = DefaultMaxSerial
	}
	if cfg.TimerPeriod > 0 && cfg.TimerVector >= uint32(len(prog)) {
		return nil, fmt.Errorf("machine: timer vector %d outside program of %d instructions",
			cfg.TimerVector, len(prog))
	}
	m := &Machine{
		cfg:       cfg,
		rom:       prog, // initial program, for reference only; fetches decode RAM
		ram:       make([]byte, cfg.RAMSize),
		status:    StatusRunning,
		maxSerial: maxSerial,
		fireAt:    cfg.TimerPeriod,
		vn:        true,
		codeBase:  codeBase,
		codeLen:   uint32(len(prog)),
	}
	copy(m.ram, image)
	// The code mapping wins over image bytes in the code region.
	copy(m.ram[codeBase:], code)
	return m, nil
}

// VonNeumann reports whether the machine fetches its program from RAM.
func (m *Machine) VonNeumann() bool { return m.vn }

// vnDecode decodes instruction index pc from the RAM-resident code
// region. The caller must have bounds-checked pc against codeLen.
func (m *Machine) vnDecode(pc uint32) (isa.Instruction, Exception) {
	off := m.codeBase + pc*8
	b := m.ram[off : off+8 : off+8]
	w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	ins, err := isa.Decode(w)
	if err != nil {
		return isa.Instruction{}, ExcIllegalOp
	}
	return ins, ExcNone
}

// invalidateCode clears the cached lowering of every instruction whose
// encoded bytes overlap the written RAM range [addr, addr+size). Called
// on the von Neumann store/flip/restore paths; a no-op without an
// active predecode cache.
func (m *Machine) invalidateCode(addr, size uint32) {
	if m.pre == nil || m.pre.valid == nil {
		return
	}
	end := m.codeBase + m.codeLen*8
	if addr+size <= m.codeBase || addr >= end {
		return
	}
	lo, hi := addr, addr+size
	if lo < m.codeBase {
		lo = m.codeBase
	}
	if hi > end {
		hi = end
	}
	first := (lo - m.codeBase) / 8
	last := (hi - 1 - m.codeBase) / 8
	cleared := false
	for i := first; i <= last; i++ {
		if m.pre.valid[i>>6]&(1<<(i&63)) != 0 {
			m.pre.valid[i>>6] &^= 1 << (i & 63)
			cleared = true
		}
	}
	if cleared {
		m.pre.invalidations++
	}
}

// invalidateAllCode conservatively drops every cached lowering; used by
// full-state restores, which may rewrite the code region wholesale.
func (m *Machine) invalidateAllCode() {
	if m.pre == nil || m.pre.valid == nil {
		return
	}
	cleared := false
	for i, w := range m.pre.valid {
		if w != 0 {
			m.pre.valid[i] = 0
			cleared = true
		}
	}
	if cleared {
		m.pre.invalidations++
	}
}

// runPre is Run over the pre-decoded stream. It executes in chunks
// bounded by the next timer event, so the chunk loop itself needs no
// per-cycle timer check; interrupt delivery happens here at chunk
// boundaries, mirroring Step's instruction-boundary semantics exactly
// (the chunk limit never extends past a pending fire).
func (m *Machine) runPre(maxCycles uint64) Status {
	for m.status == StatusRunning && m.cycles < maxCycles {
		limit := maxCycles
		if m.cfg.TimerPeriod > 0 && !m.inIRQ {
			if m.cycles >= m.fireAt {
				m.savedPC = m.pc
				m.pc = m.cfg.TimerVector
				m.inIRQ = true
			} else if m.fireAt < limit {
				limit = m.fireAt
			}
		}
		m.runChunk(limit)
	}
	return m.status
}

// runChunk executes pre-decoded instructions until the retired-cycle
// count reaches limit, the machine leaves StatusRunning, or an OpSret
// re-arms the timer (which invalidates the caller's chunk limit). The
// caller guarantees no timer interrupt becomes deliverable strictly
// inside (m.cycles, limit) and that no hooks are installed.
func (m *Machine) runChunk(limit uint64) {
	var fexc Exception
	code := m.pre.code
	valid := m.pre.valid
	ram := m.ram
	regs := &m.regs
	pc := m.pc
	cycles := m.cycles
	codeLen := uint32(len(code))
	for cycles < limit {
		if pc >= codeLen {
			m.pc, m.cycles = pc, cycles
			m.raise(ExcBadPC)
			return
		}
		ins := &code[pc]
		var tmp preIns
		if valid != nil && valid[pc>>6]&(1<<(pc&63)) == 0 {
			// Dirtied (or never-decodable) instruction: fall back to plain
			// decode from RAM, exactly like the slow path would.
			dec, exc := m.vnDecode(pc)
			if exc != ExcNone {
				m.pc, m.cycles = pc, cycles
				m.raise(exc)
				return
			}
			tmp = lower(dec)
			ins = &tmp
		}
		cycles++ // the executing instruction's retire count (== Step's `cycle`)
		nextPC := pc + 1

		switch ins.op {
		case isa.OpNop:
			// nothing
		case isa.OpHalt:
			m.status = StatusHalted
			m.pc, m.cycles = nextPC, cycles
			return
		case isa.OpLi:
			if ins.rd != 0 {
				regs[ins.rd&15] = ins.immU
			}
		case isa.OpMov:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15]
			}

		case isa.OpAdd:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] + regs[ins.rt&15]
			}
		case isa.OpSub:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] - regs[ins.rt&15]
			}
		case isa.OpAnd:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] & regs[ins.rt&15]
			}
		case isa.OpOr:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] | regs[ins.rt&15]
			}
		case isa.OpXor:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] ^ regs[ins.rt&15]
			}
		case isa.OpShl:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] << (regs[ins.rt&15] & 31)
			}
		case isa.OpShr:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] >> (regs[ins.rt&15] & 31)
			}
		case isa.OpSar:
			if ins.rd != 0 {
				regs[ins.rd&15] = uint32(int32(regs[ins.rs&15]) >> (regs[ins.rt&15] & 31))
			}
		case isa.OpMul:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] * regs[ins.rt&15]
			}
		case isa.OpSlt:
			if ins.rd != 0 {
				regs[ins.rd&15] = boolToReg(int32(regs[ins.rs&15]) < int32(regs[ins.rt&15]))
			}
		case isa.OpSltu:
			if ins.rd != 0 {
				regs[ins.rd&15] = boolToReg(regs[ins.rs&15] < regs[ins.rt&15])
			}

		case isa.OpAddi:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] + ins.immU
			}
		case isa.OpAndi:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] & ins.immU
			}
		case isa.OpOri:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] | ins.immU
			}
		case isa.OpXori:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] ^ ins.immU
			}
		case isa.OpShli:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] << ins.immU
			}
		case isa.OpShri:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] >> ins.immU
			}
		case isa.OpSlti:
			if ins.rd != 0 {
				regs[ins.rd&15] = boolToReg(int32(regs[ins.rs&15]) < ins.imm)
			}

		case isa.OpLw:
			addr := regs[ins.rs&15] + ins.immU
			if addr%4 != 0 {
				fexc = ExcMisaligned
				goto fault
			}
			if int(addr)+4 <= len(ram) {
				if ins.rd != 0 {
					regs[ins.rd&15] = uint32(ram[addr]) |
						uint32(ram[addr+1])<<8 |
						uint32(ram[addr+2])<<16 |
						uint32(ram[addr+3])<<24
				}
			} else if addr >= MMIOBase {
				fexc = ExcPortLoad
				goto fault
			} else {
				fexc = ExcMemRange
				goto fault
			}
		case isa.OpLb:
			addr := regs[ins.rs&15] + ins.immU
			if int(addr) < len(ram) {
				if ins.rd != 0 {
					regs[ins.rd&15] = uint32(ram[addr])
				}
			} else if addr >= MMIOBase {
				fexc = ExcPortLoad
				goto fault
			} else {
				fexc = ExcMemRange
				goto fault
			}

		case isa.OpSw, isa.OpSwi:
			addr := regs[ins.rs&15] + ins.immU
			v := ins.imm2U
			if ins.op == isa.OpSw {
				v = regs[ins.rt&15]
			}
			if addr%4 != 0 {
				fexc = ExcMisaligned
				goto fault
			}
			if int(addr)+4 <= len(ram) {
				ram[addr] = byte(v)
				ram[addr+1] = byte(v >> 8)
				ram[addr+2] = byte(v >> 16)
				ram[addr+3] = byte(v >> 24)
				if valid != nil {
					m.invalidateCode(addr, 4)
				}
			} else if addr >= MMIOBase {
				if exc := m.storePort(addr, v); exc != ExcNone {
					fexc = exc
					goto fault
				}
				if m.status != StatusRunning { // PortAbort
					m.pc, m.cycles = nextPC, cycles
					return
				}
			} else {
				fexc = ExcMemRange
				goto fault
			}
		case isa.OpSb, isa.OpSbi:
			addr := regs[ins.rs&15] + ins.immU
			v := byte(ins.imm2U)
			if ins.op == isa.OpSb {
				v = byte(regs[ins.rt&15])
			}
			if int(addr) < len(ram) {
				ram[addr] = v
				if valid != nil {
					m.invalidateCode(addr, 1)
				}
			} else if addr >= MMIOBase {
				if exc := m.storePort(addr&^3, uint32(v)); exc != ExcNone {
					fexc = exc
					goto fault
				}
				if m.status != StatusRunning {
					m.pc, m.cycles = nextPC, cycles
					return
				}
			} else {
				fexc = ExcMemRange
				goto fault
			}

		case isa.OpBeq:
			if regs[ins.rs&15] == regs[ins.rt&15] {
				nextPC = ins.immU
			}
		case isa.OpBne:
			if regs[ins.rs&15] != regs[ins.rt&15] {
				nextPC = ins.immU
			}
		case isa.OpBlt:
			if int32(regs[ins.rs&15]) < int32(regs[ins.rt&15]) {
				nextPC = ins.immU
			}
		case isa.OpBge:
			if int32(regs[ins.rs&15]) >= int32(regs[ins.rt&15]) {
				nextPC = ins.immU
			}
		case isa.OpBltu:
			if regs[ins.rs&15] < regs[ins.rt&15] {
				nextPC = ins.immU
			}
		case isa.OpBgeu:
			if regs[ins.rs&15] >= regs[ins.rt&15] {
				nextPC = ins.immU
			}
		case isa.OpJmp:
			nextPC = ins.immU
		case isa.OpJal:
			regs[isa.RegLR] = pc + 1
			nextPC = ins.immU
		case isa.OpJr:
			nextPC = regs[ins.rs&15]
		case isa.OpJalr:
			if ins.rd != 0 {
				regs[ins.rd&15] = pc + 1
			}
			nextPC = regs[ins.rs&15]
		case isa.OpSret:
			if !m.inIRQ {
				fexc = ExcIllegalOp
				goto fault
			}
			m.inIRQ = false
			m.fireAt = cycles + m.cfg.TimerPeriod
			// The re-armed timer invalidates the chunk limit; hand control
			// back so runPre recomputes it.
			m.pc, m.cycles = m.savedPC, cycles
			return
		case isa.OpRdspc:
			if !m.inIRQ {
				fexc = ExcIllegalOp
				goto fault
			}
			if ins.rd != 0 {
				regs[ins.rd&15] = m.savedPC
			}
		case isa.OpWrspc:
			if !m.inIRQ {
				fexc = ExcIllegalOp
				goto fault
			}
			m.savedPC = regs[ins.rs&15]

		default:
			fexc = ExcIllegalOp
			goto fault
		}

		pc = nextPC
	}
	m.pc, m.cycles = pc, cycles
	return

fault:
	// Mirrors raise(): the faulting instruction consumes its cycle
	// (already counted in cycles) and the PC stays at the faulting
	// instruction.
	m.status = StatusExcepted
	m.exc = fexc
	m.pc, m.cycles = pc, cycles
}
