package machine

import (
	"encoding/binary"
	"hash/maphash"
)

// This file exposes the machine's behavior-relevant execution state to
// the campaign layer's cross-experiment memoization (see
// internal/campaign/memo.go). The machine is deterministic, so two
// running machines of the same configuration and program that agree on
// this state — at the same retired-cycle count — execute identical
// continuations. Serial CONTENT and the detect/correct counters are
// excluded (MMIO ports are write-only, so they can never influence
// execution), but the serial LENGTH is included because the serial cap
// check depends on it.

// SerialLen returns the length of the serial output produced so far,
// without copying it (compare Serial).
func (m *Machine) SerialLen() int { return len(m.serial) }

// SerialView returns the serial output as a read-only view into the
// machine's live buffer. The slice is invalidated by any subsequent
// Step, Run or state restore; callers must not mutate or retain it.
// It exists so classification can compare output without per-experiment
// copying (compare Serial).
func (m *Machine) SerialView() []byte { return m.serial }

// AppendSerialSuffix appends the serial output from byte offset `from`
// onwards to dst and returns the extended slice.
func (m *Machine) AppendSerialSuffix(dst []byte, from int) []byte {
	return append(dst, m.serial[from:]...)
}

// HashExecState writes the behavior-relevant execution state into h.
// The machine must be running; the retired-cycle count is deliberately
// NOT written (callers key it separately, so "same state at the same
// cycle" and the hash compose into a full identity). The timer distance
// is clamped (see timerRel): an overdue timer fires at the next boundary
// no matter how overdue, so all "already due" states behave identically.
func (m *Machine) HashExecState(h *maphash.Hash) {
	var buf [96]byte
	binary.LittleEndian.PutUint32(buf[0:], m.pc)
	for i, r := range m.regs {
		binary.LittleEndian.PutUint32(buf[4+4*i:], r)
	}
	binary.LittleEndian.PutUint32(buf[68:], m.savedPC)
	if m.inIRQ {
		buf[72] = 1
	}
	binary.LittleEndian.PutUint64(buf[73:], m.timerRel())
	binary.LittleEndian.PutUint64(buf[81:], uint64(len(m.serial)))
	h.Write(buf[:89])
	h.Write(m.ram)
}

// timerRel returns the behavior-relevant distance to the next timer
// fire: an overdue timer fires at the next opportunity no matter how
// overdue it is, so all "already due" states clamp to zero. With the
// timer disabled the field is inert and reads as zero.
func (m *Machine) timerRel() uint64 {
	if m.cfg.TimerPeriod > 0 && m.fireAt > m.cycles {
		return m.fireAt - m.cycles
	}
	return 0
}
