package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"faultspace/internal/isa"
	"faultspace/internal/pruning"
)

// CampaignIdentity returns the identity hash of a campaign: SHA-256 over
// the target (name, code, initial RAM image, machine configuration), the
// fault-space kind and the outcome-relevant campaign parameters (the
// timeout budget). Two campaigns with equal identity produce equal
// outcome vectors, so the hash keys checkpoints and archives: a
// checkpoint may only ever be resumed into a campaign with the same
// identity.
//
// Workers and Strategy are deliberately excluded — they change how
// experiments are executed, never what they compute. That invariance is
// what the differential strategy-equivalence test suite enforces, and it
// is what makes a checkpoint written under StrategySnapshot resumable
// under StrategyRerun (or with a different worker count).
func (t Target) CampaignIdentity(kind pruning.SpaceKind, cfg Config) ([32]byte, error) {
	cfg = cfg.withDefaults()
	code, err := isa.EncodeProgram(t.Code)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	// v2 added the attacker-objective name: the objective changes the
	// recorded outcomes (the AttackFlag bit), so campaigns with different
	// objectives must never share checkpoints or archive entries.
	str("faultspace campaign identity v2")
	str(t.Name)
	u64(uint64(len(code)))
	h.Write(code)
	u64(uint64(len(t.Image)))
	h.Write(t.Image)
	u64(uint64(t.Mach.RAMSize))
	u64(uint64(t.Mach.MaxSerial))
	u64(t.Mach.TimerPeriod)
	u64(uint64(t.Mach.TimerVector))
	u64(uint64(kind))
	u64(math.Float64bits(cfg.TimeoutFactor))
	u64(cfg.TimeoutSlack)
	if cfg.Objective != nil {
		str(cfg.Objective.Name)
	} else {
		str("")
	}
	var id [32]byte
	copy(id[:], h.Sum(nil))
	return id, nil
}
