// Package machine implements the deterministic fav32 simulator used as the
// fault-injection vehicle.
//
// The machine follows the model of Schirmeier et al. (DSN 2015), §II-C:
//
//   - a simple RISC CPU with classic in-order execution,
//   - no caches on the way to a wait-free main memory,
//   - a timing of exactly one cycle per CPU instruction,
//   - programs executed from read-only memory that is immune to faults.
//
// Benchmark runs are deterministic: the same program with an identical start
// configuration leads to an exactly identical run. The machine can be paused
// between any two instructions (e.g. to inject a fault by flipping a memory
// bit) and resumed afterwards, and its full state can be snapshotted and
// restored, which the campaign engine uses to accelerate fault-space scans.
//
// Cycle numbering: the first executed instruction retires at cycle 1. A
// fault-injection slot t ∈ [1, Δt] denotes the instant after instruction
// t−1 retired and before instruction t executes; in simulator terms, flip
// the bit when Cycles() == t−1.
package machine

import (
	"errors"
	"fmt"

	"faultspace/internal/isa"
)

// Memory-mapped I/O port addresses. Ports live above RAM and are not part
// of the fault space. Only stores are allowed; loading from a port raises
// a memory exception (wild reads should be caught, not masked).
const (
	// MMIOBase is the lowest port address; RAM must end at or below it.
	MMIOBase uint32 = 0x0001_0000

	// PortSerial emits the low byte of the stored value on the serial
	// interface. The serial output is the program's observable behavior.
	PortSerial = MMIOBase + 0x0

	// PortDetect signals that a fault-tolerance mechanism detected an
	// error. Stores increment a counter but have no other effect.
	PortDetect = MMIOBase + 0x4

	// PortCorrect signals that a detected error was corrected.
	PortCorrect = MMIOBase + 0x8

	// PortAbort terminates the run: a fault-tolerance mechanism detected
	// an unrecoverable error and shut the system down.
	PortAbort = MMIOBase + 0xc
)

// Status is the execution state of the machine.
type Status uint8

// Machine statuses.
const (
	StatusRunning  Status = iota + 1 // can execute further instructions
	StatusHalted                     // executed OpHalt; normal termination
	StatusExcepted                   // raised a CPU exception
	StatusAborted                    // program stored to PortAbort
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusExcepted:
		return "excepted"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Exception identifies the cause of a CPU exception.
type Exception uint8

// Exception causes.
const (
	ExcNone        Exception = iota // no exception
	ExcBadPC                        // program counter outside ROM
	ExcIllegalOp                    // invalid operation code
	ExcMemRange                     // memory access outside RAM and ports
	ExcMisaligned                   // unaligned word access
	ExcPortLoad                     // load from an MMIO port
	ExcSerialLimit                  // serial output exceeded the configured cap
)

// String returns a human-readable exception name.
func (e Exception) String() string {
	switch e {
	case ExcNone:
		return "none"
	case ExcBadPC:
		return "bad-pc"
	case ExcIllegalOp:
		return "illegal-op"
	case ExcMemRange:
		return "mem-range"
	case ExcMisaligned:
		return "misaligned"
	case ExcPortLoad:
		return "port-load"
	case ExcSerialLimit:
		return "serial-limit"
	default:
		return fmt.Sprintf("exception(%d)", uint8(e))
	}
}

// AccessKind distinguishes memory reads from writes in trace hooks.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota + 1
	AccessWrite
)

// MemHook observes RAM accesses. cycle is the cycle number of the accessing
// instruction; addr/size describe the accessed byte range. Hooks are only
// invoked for RAM (never for MMIO ports), because only RAM is part of the
// fault space.
type MemHook func(cycle uint64, addr uint32, size uint8, kind AccessKind)

// ExecHook observes instruction execution: it fires before the instruction
// at pc executes its effects, with cycle being the cycle the instruction
// will retire at. Used by the tracer to derive register def/use
// information for the §VI-B register fault-space generalization.
type ExecHook func(cycle uint64, pc uint32, ins isa.Instruction)

// Config parameterizes a machine.
type Config struct {
	// RAMSize is the main-memory size in bytes: positive and at most
	// MMIOBase. Word accesses require 4 in-range bytes; tiny RAMs (like
	// the 2-byte "Hi" benchmark) simply cannot use word operations.
	RAMSize int

	// MaxSerial caps the serial output length; a run that exceeds it
	// raises ExcSerialLimit. This bounds memory use of runs that go wild
	// after a fault. 0 means DefaultMaxSerial.
	MaxSerial int

	// TimerPeriod enables the deterministic timer: every TimerPeriod
	// retired cycles an interrupt fires (unless one is already being
	// handled), saving the PC and vectoring to TimerVector. 0 disables
	// the timer. Because the period is counted in retired cycles, timer
	// events replay at exactly the same point in every run — the
	// deterministic external events of the paper's machine model (§II-C).
	TimerPeriod uint64

	// TimerVector is the instruction index of the interrupt handler.
	TimerVector uint32
}

// DefaultMaxSerial is the serial output cap used when Config.MaxSerial is 0.
const DefaultMaxSerial = 1 << 16

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RAMSize <= 0 {
		return fmt.Errorf("machine: RAMSize %d must be positive", c.RAMSize)
	}
	if uint32(c.RAMSize) > MMIOBase {
		return fmt.Errorf("machine: RAMSize %d overlaps MMIO at %#x", c.RAMSize, MMIOBase)
	}
	if c.MaxSerial < 0 {
		return fmt.Errorf("machine: MaxSerial %d must be non-negative", c.MaxSerial)
	}
	return nil
}

// ErrNotRunning is returned by Step when the machine has terminated.
var ErrNotRunning = errors.New("machine: not running")

// Machine is one fav32 simulator instance. It is not safe for concurrent
// use; campaigns use one Machine per worker.
type Machine struct {
	cfg       Config
	rom       []isa.Instruction
	ram       []byte
	regs      [isa.NumRegs]uint32
	pc        uint32
	cycles    uint64
	status    Status
	exc       Exception
	serial    []byte
	maxSerial int
	detects   uint64
	corrects  uint64
	hook      MemHook
	execHook  ExecHook

	// Timer-interrupt state.
	inIRQ   bool
	savedPC uint32
	fireAt  uint64 // cycle count at which the next timer interrupt fires

	// skipNext, when set, makes the next Step retire without executing
	// its instruction: the instruction-skip fault model (FlipSkip). The
	// flag is one-shot and always consumed before the machine reaches a
	// memo probe, so it is deliberately excluded from HashExecState.
	skipNext bool

	// codeLen is the program length in instructions; pc ∈ [0, codeLen)
	// is executable. For Harvard machines it equals len(rom).
	codeLen uint32
	// Von Neumann mode (NewVonNeumann): the program is fetched by
	// decoding RAM at codeBase instead of from the fault-immune ROM.
	vn       bool
	codeBase uint32
	// pre is the pre-decoded instruction stream (nil unless enabled via
	// SetPredecode); see predecode.go.
	pre *preProg
}

// New creates a machine executing prog with RAM initialized from image
// (padded with zero bytes). The ROM is shared, not copied: callers must not
// mutate prog afterwards — the fault model keeps ROM immune to faults.
func New(cfg Config, prog []isa.Instruction, image []byte) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(prog) == 0 {
		return nil, errors.New("machine: empty program")
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
		rom:       prog,
		ram:       make([]byte, cfg.RAMSize),
		status:    StatusRunning,
		maxSerial: maxSerial,
		fireAt:    cfg.TimerPeriod,
		codeLen:   uint32(len(prog)),
	}
	copy(m.ram, image)
	return m, nil
}

// InIRQ reports whether the machine is currently executing a timer
// interrupt handler.
func (m *Machine) InIRQ() bool { return m.inIRQ }

// SetMemHook installs a RAM access observer (nil to remove).
func (m *Machine) SetMemHook(h MemHook) { m.hook = h }

// SetExecHook installs an instruction-execution observer (nil to remove).
func (m *Machine) SetExecHook(h ExecHook) { m.execHook = h }

// Status returns the current execution status.
func (m *Machine) Status() Status { return m.status }

// Exception returns the exception cause (ExcNone unless StatusExcepted).
func (m *Machine) Exception() Exception { return m.exc }

// Cycles returns the number of retired instructions.
func (m *Machine) Cycles() uint64 { return m.cycles }

// PC returns the current program counter (an instruction index).
func (m *Machine) PC() uint32 { return m.pc }

// Reg returns the value of register i.
func (m *Machine) Reg(i int) uint32 { return m.regs[i] }

// SetReg sets register i (writes to r0 are ignored, as in execution).
func (m *Machine) SetReg(i int, v uint32) {
	if i != isa.RegZero {
		m.regs[i] = v
	}
}

// Serial returns a copy of the serial output produced so far.
func (m *Machine) Serial() []byte {
	out := make([]byte, len(m.serial))
	copy(out, m.serial)
	return out
}

// DetectCount returns the number of stores to PortDetect.
func (m *Machine) DetectCount() uint64 { return m.detects }

// CorrectCount returns the number of stores to PortCorrect.
func (m *Machine) CorrectCount() uint64 { return m.corrects }

// RAMSize returns the main-memory size in bytes.
func (m *Machine) RAMSize() int { return len(m.ram) }

// RAMBits returns the fault-space memory dimension Δm in bits.
func (m *Machine) RAMBits() uint64 { return uint64(len(m.ram)) * 8 }

// ReadRAM copies n bytes of RAM starting at addr, for inspection in tests
// and tools. It does not invoke the memory hook.
func (m *Machine) ReadRAM(addr uint32, n int) ([]byte, error) {
	if int(addr)+n > len(m.ram) {
		return nil, fmt.Errorf("machine: ReadRAM [%#x, %#x) outside RAM", addr, int(addr)+n)
	}
	out := make([]byte, n)
	copy(out, m.ram[addr:])
	return out, nil
}

// FlipBit injects a transient single-bit fault: it flips RAM bit `bit`,
// where bit/8 selects the byte and bit%8 the bit within the byte.
func (m *Machine) FlipBit(bit uint64) error {
	if bit >= m.RAMBits() {
		return fmt.Errorf("machine: bit %d outside RAM (%d bits)", bit, m.RAMBits())
	}
	m.ram[bit/8] ^= 1 << (bit % 8)
	if m.vn {
		m.invalidateCode(uint32(bit/8), 1)
	}
	return nil
}

// RegSpaceBits is the size of the register fault space: the 15 writable
// general-purpose registers (r0 is hardwired zero and immune) times 32
// bits, in the layout used by FlipRegBit.
const RegSpaceBits = (isa.NumRegs - 1) * 32

// FlipRegBit injects a transient single-bit fault into the register file
// (the §VI-B generalization of the fault model). Bit layout: bit/32 + 1
// selects the register (r1..r15), bit%32 the bit within it.
func (m *Machine) FlipRegBit(bit uint64) error {
	if bit >= RegSpaceBits {
		return fmt.Errorf("machine: bit %d outside register space (%d bits)", bit, RegSpaceBits)
	}
	reg := bit/32 + 1
	m.regs[reg] ^= 1 << (bit % 32)
	return nil
}

// FlipSkip injects an instruction-skip fault: the next dynamic instruction
// is not executed. The machine still spends the cycle (the pipeline
// bubbles through) and the program counter falls through to the next
// instruction, but the skipped instruction has no architectural effect —
// the ARMORY-style fault model for clock/voltage glitch attacks.
func (m *Machine) FlipSkip() { m.skipNext = true }

// PCBits is the size of the PC-corruption fault space per injection slot:
// the program counter is a 32-bit register.
const PCBits = 32

// FlipPCBit injects a transient single-bit fault into the program counter:
// the next fetch happens from the corrupted address. Faults that leave the
// PC outside the program raise ExcBadPC on the next Step, exactly like a
// wild indirect jump.
func (m *Machine) FlipPCBit(bit uint64) error {
	if bit >= PCBits {
		return fmt.Errorf("machine: bit %d outside PC (%d bits)", bit, PCBits)
	}
	m.pc ^= 1 << bit
	return nil
}

// BurstPositions returns the number of distinct k-bit burst positions per
// RAM byte: a burst of k adjacent bits fits at offsets 0..8−k within the
// byte, so there are 9−k positions.
func BurstPositions(k int) uint64 { return uint64(9 - k) }

// FlipBurst injects a multi-bit burst fault: k adjacent bits flipped in
// one RAM byte. pos encodes (byte, offset) as byte*(9−k)+offset; the
// flipped mask is ((1<<k)−1)<<offset. k must be in [1, 8].
func (m *Machine) FlipBurst(k int, pos uint64) error {
	if k < 1 || k > 8 {
		return fmt.Errorf("machine: burst width %d outside [1, 8]", k)
	}
	p := BurstPositions(k)
	b := pos / p
	if b >= uint64(len(m.ram)) {
		return fmt.Errorf("machine: burst position %d outside RAM (%d bytes × %d positions)",
			pos, len(m.ram), p)
	}
	m.ram[b] ^= byte((1<<k - 1) << (pos % p))
	if m.vn {
		m.invalidateCode(uint32(b), 1)
	}
	return nil
}

// Step executes one instruction. It returns the machine status after the
// instruction retired, or ErrNotRunning if the machine already terminated.
func (m *Machine) Step() (Status, error) {
	if m.status != StatusRunning {
		return m.status, ErrNotRunning
	}
	// Timer interrupt: fires at the instruction boundary once the retired-
	// cycle count reaches fireAt, unless a handler is already running.
	// The timer is re-armed when the handler returns (see OpSret), so the
	// period counts cycles outside the handler and a handler longer than
	// the period cannot starve the interrupted program.
	if m.cfg.TimerPeriod > 0 && !m.inIRQ && m.cycles >= m.fireAt {
		m.savedPC = m.pc
		m.pc = m.cfg.TimerVector
		m.inIRQ = true
	}
	if m.pc >= m.codeLen {
		return m.raise(ExcBadPC), nil
	}
	if m.skipNext {
		// Instruction-skip fault: the instruction at pc is fetched but not
		// executed. The cycle is still spent and the PC falls through, so
		// cycle accounting stays monotonic and the timer stays in phase.
		m.skipNext = false
		m.cycles++
		m.pc++
		return m.status, nil
	}
	var ins isa.Instruction
	if m.vn {
		var exc Exception
		if ins, exc = m.vnDecode(m.pc); exc != ExcNone {
			return m.raise(exc), nil
		}
	} else {
		ins = m.rom[m.pc]
	}
	cycle := m.cycles + 1
	nextPC := m.pc + 1
	if m.execHook != nil {
		m.execHook(cycle, m.pc, ins)
	}

	switch ins.Op {
	case isa.OpNop:
		// nothing
	case isa.OpHalt:
		m.status = StatusHalted
	case isa.OpLi:
		m.setReg(ins.Rd, uint32(ins.Imm))
	case isa.OpMov:
		m.setReg(ins.Rd, m.regs[ins.Rs])

	case isa.OpAdd:
		m.setReg(ins.Rd, m.regs[ins.Rs]+m.regs[ins.Rt])
	case isa.OpSub:
		m.setReg(ins.Rd, m.regs[ins.Rs]-m.regs[ins.Rt])
	case isa.OpAnd:
		m.setReg(ins.Rd, m.regs[ins.Rs]&m.regs[ins.Rt])
	case isa.OpOr:
		m.setReg(ins.Rd, m.regs[ins.Rs]|m.regs[ins.Rt])
	case isa.OpXor:
		m.setReg(ins.Rd, m.regs[ins.Rs]^m.regs[ins.Rt])
	case isa.OpShl:
		m.setReg(ins.Rd, m.regs[ins.Rs]<<(m.regs[ins.Rt]&31))
	case isa.OpShr:
		m.setReg(ins.Rd, m.regs[ins.Rs]>>(m.regs[ins.Rt]&31))
	case isa.OpSar:
		m.setReg(ins.Rd, uint32(int32(m.regs[ins.Rs])>>(m.regs[ins.Rt]&31)))
	case isa.OpMul:
		m.setReg(ins.Rd, m.regs[ins.Rs]*m.regs[ins.Rt])
	case isa.OpSlt:
		m.setReg(ins.Rd, boolToReg(int32(m.regs[ins.Rs]) < int32(m.regs[ins.Rt])))
	case isa.OpSltu:
		m.setReg(ins.Rd, boolToReg(m.regs[ins.Rs] < m.regs[ins.Rt]))

	case isa.OpAddi:
		m.setReg(ins.Rd, m.regs[ins.Rs]+uint32(ins.Imm))
	case isa.OpAndi:
		m.setReg(ins.Rd, m.regs[ins.Rs]&uint32(ins.Imm))
	case isa.OpOri:
		m.setReg(ins.Rd, m.regs[ins.Rs]|uint32(ins.Imm))
	case isa.OpXori:
		m.setReg(ins.Rd, m.regs[ins.Rs]^uint32(ins.Imm))
	case isa.OpShli:
		m.setReg(ins.Rd, m.regs[ins.Rs]<<(uint32(ins.Imm)&31))
	case isa.OpShri:
		m.setReg(ins.Rd, m.regs[ins.Rs]>>(uint32(ins.Imm)&31))
	case isa.OpSlti:
		m.setReg(ins.Rd, boolToReg(int32(m.regs[ins.Rs]) < ins.Imm))

	case isa.OpLw:
		v, exc := m.loadWord(cycle, m.regs[ins.Rs]+uint32(ins.Imm))
		if exc != ExcNone {
			return m.raise(exc), nil
		}
		m.setReg(ins.Rd, v)
	case isa.OpLb:
		v, exc := m.loadByte(cycle, m.regs[ins.Rs]+uint32(ins.Imm))
		if exc != ExcNone {
			return m.raise(exc), nil
		}
		m.setReg(ins.Rd, uint32(v))
	case isa.OpSw:
		if exc := m.storeWord(cycle, m.regs[ins.Rs]+uint32(ins.Imm), m.regs[ins.Rt]); exc != ExcNone {
			return m.raise(exc), nil
		}
	case isa.OpSb:
		if exc := m.storeByte(cycle, m.regs[ins.Rs]+uint32(ins.Imm), byte(m.regs[ins.Rt])); exc != ExcNone {
			return m.raise(exc), nil
		}
	case isa.OpSwi:
		if exc := m.storeWord(cycle, m.regs[ins.Rs]+uint32(ins.Imm), uint32(ins.Imm2)); exc != ExcNone {
			return m.raise(exc), nil
		}
	case isa.OpSbi:
		if exc := m.storeByte(cycle, m.regs[ins.Rs]+uint32(ins.Imm), byte(ins.Imm2)); exc != ExcNone {
			return m.raise(exc), nil
		}

	case isa.OpBeq:
		if m.regs[ins.Rs] == m.regs[ins.Rt] {
			nextPC = uint32(ins.Imm)
		}
	case isa.OpBne:
		if m.regs[ins.Rs] != m.regs[ins.Rt] {
			nextPC = uint32(ins.Imm)
		}
	case isa.OpBlt:
		if int32(m.regs[ins.Rs]) < int32(m.regs[ins.Rt]) {
			nextPC = uint32(ins.Imm)
		}
	case isa.OpBge:
		if int32(m.regs[ins.Rs]) >= int32(m.regs[ins.Rt]) {
			nextPC = uint32(ins.Imm)
		}
	case isa.OpBltu:
		if m.regs[ins.Rs] < m.regs[ins.Rt] {
			nextPC = uint32(ins.Imm)
		}
	case isa.OpBgeu:
		if m.regs[ins.Rs] >= m.regs[ins.Rt] {
			nextPC = uint32(ins.Imm)
		}
	case isa.OpJmp:
		nextPC = uint32(ins.Imm)
	case isa.OpJal:
		m.setReg(isa.RegLR, m.pc+1)
		nextPC = uint32(ins.Imm)
	case isa.OpJr:
		nextPC = m.regs[ins.Rs]
	case isa.OpJalr:
		m.setReg(ins.Rd, m.pc+1)
		nextPC = m.regs[ins.Rs]
	case isa.OpSret:
		if !m.inIRQ {
			return m.raise(ExcIllegalOp), nil
		}
		m.inIRQ = false
		m.fireAt = cycle + m.cfg.TimerPeriod
		nextPC = m.savedPC
	case isa.OpRdspc:
		if !m.inIRQ {
			return m.raise(ExcIllegalOp), nil
		}
		m.setReg(ins.Rd, m.savedPC)
	case isa.OpWrspc:
		if !m.inIRQ {
			return m.raise(ExcIllegalOp), nil
		}
		m.savedPC = m.regs[ins.Rs]

	default:
		return m.raise(ExcIllegalOp), nil
	}

	m.cycles = cycle
	if m.status == StatusRunning || m.status == StatusHalted || m.status == StatusAborted {
		m.pc = nextPC
	}
	return m.status, nil
}

// Run executes instructions until the machine terminates or maxCycles
// instructions have retired in total (i.e. Cycles() reaches maxCycles).
// It returns the resulting status; StatusRunning means the cycle budget
// was exhausted.
func (m *Machine) Run(maxCycles uint64) Status {
	// A pending instruction-skip fault is consumed by one plain Step
	// before entering any fast path: the pre-decoded chunk loop does not
	// model the skip flag (it can only ever be set at an injection
	// boundary, never mid-run).
	if m.skipNext && m.status == StatusRunning && m.cycles < maxCycles {
		if _, err := m.Step(); err != nil {
			return m.status
		}
	}
	// The pre-decoded fast path replicates the Step loop bit for bit but
	// cannot invoke hooks; fall back to plain stepping while any are
	// installed (see predecode.go).
	if m.pre != nil && m.hook == nil && m.execHook == nil {
		return m.runPre(maxCycles)
	}
	for m.status == StatusRunning && m.cycles < maxCycles {
		if _, err := m.Step(); err != nil {
			break
		}
	}
	return m.status
}

func (m *Machine) raise(exc Exception) Status {
	m.status = StatusExcepted
	m.exc = exc
	// The faulting instruction still consumes its cycle: the machine was
	// busy for it. This keeps cycle accounting monotonic for traces.
	m.cycles++
	return m.status
}

func (m *Machine) setReg(rd uint8, v uint32) {
	if rd != isa.RegZero {
		m.regs[rd] = v
	}
}

func boolToReg(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) loadWord(cycle uint64, addr uint32) (uint32, Exception) {
	if addr%4 != 0 {
		return 0, ExcMisaligned
	}
	if int(addr)+4 <= len(m.ram) {
		if m.hook != nil {
			m.hook(cycle, addr, 4, AccessRead)
		}
		return uint32(m.ram[addr]) |
			uint32(m.ram[addr+1])<<8 |
			uint32(m.ram[addr+2])<<16 |
			uint32(m.ram[addr+3])<<24, ExcNone
	}
	if addr >= MMIOBase {
		return 0, ExcPortLoad
	}
	return 0, ExcMemRange
}

func (m *Machine) loadByte(cycle uint64, addr uint32) (byte, Exception) {
	if int(addr) < len(m.ram) {
		if m.hook != nil {
			m.hook(cycle, addr, 1, AccessRead)
		}
		return m.ram[addr], ExcNone
	}
	if addr >= MMIOBase {
		return 0, ExcPortLoad
	}
	return 0, ExcMemRange
}

func (m *Machine) storeWord(cycle uint64, addr uint32, v uint32) Exception {
	if addr%4 != 0 {
		return ExcMisaligned
	}
	if int(addr)+4 <= len(m.ram) {
		if m.hook != nil {
			m.hook(cycle, addr, 4, AccessWrite)
		}
		m.ram[addr] = byte(v)
		m.ram[addr+1] = byte(v >> 8)
		m.ram[addr+2] = byte(v >> 16)
		m.ram[addr+3] = byte(v >> 24)
		if m.vn {
			m.invalidateCode(addr, 4)
		}
		return ExcNone
	}
	if addr >= MMIOBase {
		return m.storePort(addr, v)
	}
	return ExcMemRange
}

func (m *Machine) storeByte(cycle uint64, addr uint32, v byte) Exception {
	if int(addr) < len(m.ram) {
		if m.hook != nil {
			m.hook(cycle, addr, 1, AccessWrite)
		}
		m.ram[addr] = v
		if m.vn {
			m.invalidateCode(addr, 1)
		}
		return ExcNone
	}
	if addr >= MMIOBase {
		return m.storePort(addr&^3, uint32(v))
	}
	return ExcMemRange
}

func (m *Machine) storePort(addr uint32, v uint32) Exception {
	switch addr {
	case PortSerial:
		if len(m.serial) >= m.maxSerial {
			return ExcSerialLimit
		}
		m.serial = append(m.serial, byte(v))
	case PortDetect:
		m.detects++
	case PortCorrect:
		m.corrects++
	case PortAbort:
		m.status = StatusAborted
	default:
		return ExcMemRange
	}
	return ExcNone
}
