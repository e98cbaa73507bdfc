package campaign

import (
	"fmt"
	"sync"

	"faultspace/internal/machine"
	"faultspace/internal/telemetry"
)

// MachinePool recycles reset-state worker machines for one target.
//
// A full scan allocates one machine (one RAM image) per worker once,
// which is cheap. A cluster worker, however, calls RunClasses once per
// leased work unit — hundreds of times per campaign — and without a pool
// every call would re-allocate every worker machine. Setting Config.Pool
// makes all strategies draw their machines from the pool instead and
// return them when the scan finishes.
//
// Get always hands out machines in the reset state, so pooled and fresh
// machines are indistinguishable to the scan strategies. The pool is
// safe for concurrent use.
type MachinePool struct {
	target Target

	mu    sync.Mutex
	free  []*machine.Machine
	reset *machine.Snapshot
	// reuse/alloc count Get calls served from the pool vs. freshly
	// allocated; nil (no-op) until Instrument attaches a registry.
	reuse *telemetry.Counter
	alloc *telemetry.Counter
}

// NewMachinePool creates an empty pool for the target. Machines are
// allocated lazily by Get and kept indefinitely once Put back.
func NewMachinePool(t Target) *MachinePool {
	return &MachinePool{target: t}
}

// Instrument attaches pool-efficiency counters ("pool.reuse",
// "pool.alloc") from the registry. Safe with a nil registry (counters
// stay no-ops) and concurrently with Get/Put.
func (p *MachinePool) Instrument(r *telemetry.Registry) {
	p.mu.Lock()
	p.reuse = r.Counter("pool.reuse")
	p.alloc = r.Counter("pool.alloc")
	p.mu.Unlock()
}

// Get returns a reset-state machine for the pool's target, reusing a
// pooled one if available.
func (p *MachinePool) Get() (*machine.Machine, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		reset := p.reset
		p.reuse.Inc()
		p.mu.Unlock()
		// Recycled machines come back in an arbitrary post-experiment
		// state; rewind to reset so callers see a fresh machine.
		m.Restore(reset)
		return m, nil
	}
	alloc := p.alloc
	p.mu.Unlock()

	m, err := p.target.newMachine()
	if err != nil {
		return nil, err
	}
	alloc.Inc()
	p.mu.Lock()
	if p.reset == nil {
		// The reset state is deterministic, so the snapshot of any fresh
		// machine serves as the rewind point for all recycled ones.
		p.reset = m.Snapshot()
	}
	p.mu.Unlock()
	return m, nil
}

// Put returns a machine to the pool for reuse. The machine may be in any
// state; Get rewinds it. Put(nil) is a no-op.
func (p *MachinePool) Put(m *machine.Machine) {
	if m == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// matches reports whether the pool was built for the given target.
func (p *MachinePool) matches(t Target) bool {
	return p.target.Name == t.Name &&
		len(p.target.Code) == len(t.Code) &&
		len(p.target.Image) == len(t.Image) &&
		p.target.Mach == t.Mach
}

// acquireMachine hands the scan strategies their worker machines: from
// the configured pool if one is set, freshly allocated otherwise. The
// predecode setting is applied explicitly either way — pooled machines
// carry their previous scan's setting, so "off" must be set, not just
// assumed (SetPredecode is idempotent, so re-enabling is free).
func (c Config) acquireMachine(t Target) (*machine.Machine, error) {
	m, err := c.pooledMachine(t)
	if err != nil {
		return nil, err
	}
	m.SetPredecode(c.Predecode)
	return m, nil
}

func (c Config) pooledMachine(t Target) (*machine.Machine, error) {
	if c.Pool == nil {
		return t.newMachine()
	}
	if !c.Pool.matches(t) {
		return nil, fmt.Errorf("campaign: machine pool belongs to target %q, not %q",
			c.Pool.target.Name, t.Name)
	}
	return c.Pool.Get()
}

// releaseMachines returns scan machines to the configured pool, if any.
func (c Config) releaseMachines(ms []*machine.Machine) {
	if c.Pool == nil {
		return
	}
	for _, m := range ms {
		c.Pool.Put(m)
	}
}
