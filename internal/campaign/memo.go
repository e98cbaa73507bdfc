package campaign

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"faultspace/internal/machine"
	"faultspace/internal/trace"
)

// Cross-experiment outcome memoization.
//
// Many faulted runs converge onto a common continuation — a corrupted
// value funneling into the same error-handling path, or a fault in a
// dead bit leaving the golden state itself — yet a plain scan simulates
// every experiment to its end. This file shares those continuations
// across the experiments of one snapshot-strategy campaign; the rerun
// strategy stays plain, the unaccelerated reference.
//
// The machine is deterministic, so a running machine's future depends
// only on its behavior-relevant state (machine.HashExecState) and its
// remaining cycle budget. All experiments of one campaign share one
// absolute budget, so keying entries by (boundary cycle, state hash)
// makes "the rest of this run" a pure function of the key. What the
// rest of the run contributes to classification is its outcome-relevant
// suffix: final status and exception, the serial bytes emitted after
// the boundary, and the detect/correct deltas — exactly the quantities
// HashExecState excludes from the state because the MMIO ports are
// write-only (they can never steer execution). An experiment that
// reaches a memoized state therefore composes its outcome as
// prefix-so-far + cached suffix, skipping the simulation; the result is
// bit-identical to running it out (invariant 11), which the equivalence
// matrix and the memo oracle test enforce.
//
// When does memoization pay? Each probe hashes the full machine state,
// so its cost scales with RAMSize, while a hit can never save more than
// the experiment's remaining cycle budget. Whether the hits repay the
// hashing is a property of the campaign, not of the engine: on the
// SUM+DMR variants of bin_sem2, sync2 and mbox1, whose long runs
// correct most faults and rejoin a few continuations, memo cuts the
// scan 6–9×, while on the small baseline variants most faulted runs end
// within a few hundred cycles, the hashes rarely find a match, and memo
// costs 1.3–3× instead (per-variant table in DESIGN.md §4e).
//
// So every snapshot scan starts with memo on and lets the campaign
// decide for itself (admission). The shared MemoCache tallies the
// cycles its hits skipped and the state bytes its probes hashed over
// the first memoWarmup experiments, then settles once: admit when
// saved ≥ memoAdmitRatio × hashed, otherwise refuse, after which every
// experiment takes the plain one-call path. The rule reads only what
// the probes already compute — no clock, no workload name — so it
// shifts cost, never outcomes. Independently of admission, the per-probe
// break-even cutoff (memoHashBytesPerCycle) skips probes whose
// remaining budget provably cannot repay the hash.

// Memo tuning knobs.
const (
	// memoMaxProbes caps cache probes (and populated entries) per
	// experiment: each probe hashes the full machine state, so unbounded
	// probing could cost more than the simulation it avoids. Runs that
	// terminate quickly probe little; long divergent runs probe up to
	// this many boundaries and then run out their budget normally.
	memoMaxProbes = 8
	// memoMaxEntries caps the cache size; once full, lookups continue
	// but no new entries are stored.
	memoMaxEntries = 1 << 20

	// memoHashBytesPerCycle calibrates the per-probe break-even cutoff:
	// hashing this many state bytes is assumed to cost about as much as
	// simulating one cycle. A probe runs two maphash passes over the full
	// ~(96+RAMSize) byte state, so its cost in simulated-cycle
	// equivalents is 2×(96+RAMSize)/memoHashBytesPerCycle — and a hit can
	// never save more than the experiment's remaining cycle budget. The
	// constant is deliberately an over-estimate of maphash throughput (an
	// under-estimate of probe cost), so the cutoff only skips probes that
	// cannot pay off even under optimistic assumptions; everything else
	// still reaches the cache and outcome bytes never depend on it.
	memoHashBytesPerCycle = 16

	// memoWarmup is the number of experiments a campaign runs with memo
	// on before its cache settles admission.
	memoWarmup = 256
	// memoAdmitRatio is the admission threshold θ, in cycles saved by
	// hits per state byte hashed by probes over the warm-up. It is not a
	// hash-versus-simulation exchange rate (that would be about
	// 1/memoHashBytesPerCycle): it also pays for the lookups, the entry
	// back-fill and the boundary-by-boundary stepping a memoized run
	// takes, measured on the bundled kernels (DESIGN.md §4e).
	memoAdmitRatio = 0.4

	// memoBoundaries is the probe-boundary count memoInterval aims for
	// over the golden run: interval = goldenCycles / memoBoundaries.
	memoBoundaries = 256
	// memoMinInterval floors the probe spacing so very short golden
	// runs do not hash the state after every other instruction.
	memoMinInterval = 16
)

// memoInterval returns the cycle spacing of memo probe boundaries for a
// campaign whose golden run takes goldenCycles: about memoBoundaries
// boundaries over the golden run, at least memoMinInterval cycles apart.
// The spacing shifts where probes land, never what they compute, so it
// is outcome-invariant.
func (c Config) memoInterval(goldenCycles uint64) uint64 {
	if c.memoEvery > 0 {
		return c.memoEvery
	}
	return max(goldenCycles/memoBoundaries, memoMinInterval)
}

// bindMemo readies a scan's memo cache: the snapshot strategy always
// memoizes (into a private cache when the caller shares none) and the
// rerun reference never does. It returns cfg with MemoCache set to the
// bound cache, or nil under rerun.
func (c Config) bindMemo(id [32]byte, goldenCycles uint64) (Config, error) {
	if c.Strategy == StrategyRerun {
		c.MemoCache = nil
		return c, nil
	}
	if c.MemoCache == nil {
		c.MemoCache = NewMemoCache()
	}
	if err := c.MemoCache.bind(id, c.timeoutBudget(goldenCycles)); err != nil {
		return c, err
	}
	if c.memoForce != memoUndecided {
		c.MemoCache.force(c.memoForce)
	}
	return c, nil
}

// memoKey identifies a post-injection machine state at an experiment
// boundary: the retired-cycle count plus a 128-bit state hash (two
// independently seeded maphash passes — wide enough that a colliding
// pair of distinct states is, for campaign-sized state counts,
// overwhelmingly improbable).
type memoKey struct {
	cycle  uint64
	h1, h2 uint64
}

// memoEntry is the memoized remainder of a run from a keyed state:
// final status/exception plus the observable output emitted after the
// boundary. serial is only populated for halted runs — the other
// terminal classifications never read it.
type memoEntry struct {
	status   machine.Status
	exc      machine.Exception
	serial   []byte // suffix emitted after the boundary (halted runs)
	detects  uint64 // counter deltas after the boundary
	corrects uint64
	cycles   uint64 // suffix length: cycles a hit on this entry skips
}

// memoDecision is a campaign's admission state (see the file comment).
type memoDecision uint32

const (
	memoUndecided memoDecision = iota // warming up: memo on, tallies counting
	memoAdmitted                      // memo stays on for the rest of the campaign
	memoRefused                       // every later experiment runs plainly
)

// MemoCache memoizes experiment remainders across one campaign. It is
// safe for concurrent use by any number of scan workers and may be
// shared across successive scans — cluster workers share one per
// campaign over all leased units — but never across campaigns: bind()
// pins the first campaign identity and cycle budget it serves and
// rejects mismatches, because entries are only transferable between
// experiments with identical machine semantics and budget. The
// admission decision lives here too, so it also holds across every
// scan that shares the cache.
type MemoCache struct {
	seed1, seed2 maphash.Seed

	mu      sync.RWMutex
	entries map[memoKey]memoEntry
	bound   bool
	id      [32]byte
	budget  uint64

	// Warm-up tallies, counted only while undecided.
	experiments atomic.Uint64
	savedCycles atomic.Uint64
	hashedBytes atomic.Uint64
	decision    atomic.Uint32 // a memoDecision
}

// NewMemoCache creates an empty memo cache with fresh hash seeds.
func NewMemoCache() *MemoCache {
	return &MemoCache{
		seed1:   maphash.MakeSeed(),
		seed2:   maphash.MakeSeed(),
		entries: make(map[memoKey]memoEntry),
	}
}

// Len returns the number of memoized entries.
func (c *MemoCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// bind pins the cache to a campaign identity and cycle budget on first
// use and rejects any later mismatch.
func (c *MemoCache) bind(id [32]byte, budget uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.bound {
		c.bound, c.id, c.budget = true, id, budget
		return nil
	}
	if c.id != id || c.budget != budget {
		return fmt.Errorf("campaign: memo cache already bound to a different campaign or budget")
	}
	return nil
}

func (c *MemoCache) state() memoDecision { return memoDecision(c.decision.Load()) }

// force settles admission up front (tests only; see Config.memoForce).
func (c *MemoCache) force(d memoDecision) { c.decision.Store(uint32(d)) }

// account folds one warm-up experiment into the tallies. The experiment
// that completes the warm-up settles admission and returns the decision;
// every other call returns memoUndecided.
func (c *MemoCache) account(saved, hashed uint64) memoDecision {
	if saved > 0 {
		c.savedCycles.Add(saved)
	}
	if hashed > 0 {
		c.hashedBytes.Add(hashed)
	}
	if c.experiments.Add(1) != memoWarmup {
		return memoUndecided
	}
	d := memoRefused
	if float64(c.savedCycles.Load()) >= memoAdmitRatio*float64(c.hashedBytes.Load()) {
		d = memoAdmitted
	}
	if !c.decision.CompareAndSwap(uint32(memoUndecided), uint32(d)) {
		return memoUndecided // forced before the warm-up ended
	}
	return d
}

func (c *MemoCache) lookup(k memoKey) (memoEntry, bool) {
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	return e, ok
}

func (c *MemoCache) insert(k memoKey, e memoEntry) {
	c.mu.Lock()
	if len(c.entries) < memoMaxEntries {
		if _, ok := c.entries[k]; !ok {
			c.entries[k] = e
		}
	}
	c.mu.Unlock()
}

// memoMark records one cache miss along an experiment: the key plus the
// observable-output position at that boundary, so populate can later
// compute the suffix the run produced after it.
type memoMark struct {
	key       memoKey
	serialLen int
	detects   uint64
	corrects  uint64
}

// memoRun is one worker's per-experiment memoization driver. Not safe
// for concurrent use; create one per scan worker (the cache behind it
// is shared and concurrency-safe).
type memoRun struct {
	cache  *MemoCache
	h1, h2 maphash.Hash
	marks  []memoMark
	st     *scanTel
	// probeBytes is the state bytes one probe hashes (both passes),
	// computed lazily from the first probed machine (0 = not yet).
	probeBytes uint64
}

// probeCost returns the state bytes one probe of m hashes.
func (mr *memoRun) probeCost(m *machine.Machine) uint64 {
	if mr.probeBytes == 0 {
		mr.probeBytes = 2 * uint64(96+m.RAMSize())
	}
	return mr.probeBytes
}

// breakEvenCycles returns the probe cost in simulated-cycle equivalents
// (see memoHashBytesPerCycle): probing a boundary with fewer remaining
// budget cycles than this is a guaranteed net loss.
func (mr *memoRun) breakEvenCycles(m *machine.Machine) uint64 {
	return mr.probeCost(m) / memoHashBytesPerCycle
}

func newMemoRun(cache *MemoCache, st *scanTel) *memoRun {
	if st == nil {
		st = &scanTel{}
	}
	mr := &memoRun{cache: cache, st: st, marks: make([]memoMark, 0, memoMaxProbes)}
	mr.h1.SetSeed(cache.seed1)
	mr.h2.SetSeed(cache.seed2)
	return mr
}

// reset discards the marks of the previous experiment.
func (mr *memoRun) reset() { mr.marks = mr.marks[:0] }

// exhausted reports whether this experiment used up its probe budget.
func (mr *memoRun) exhausted() bool { return len(mr.marks) >= memoMaxProbes }

// probe hashes the running machine's state and looks it up. On a hit it
// returns the entry; on a miss it records a mark so populate can fill
// the entry once the run's remainder is known.
func (mr *memoRun) probe(m *machine.Machine) (memoEntry, bool) {
	mr.h1.Reset()
	m.HashExecState(&mr.h1)
	mr.h2.Reset()
	m.HashExecState(&mr.h2)
	key := memoKey{cycle: m.Cycles(), h1: mr.h1.Sum64(), h2: mr.h2.Sum64()}
	if e, ok := mr.cache.lookup(key); ok {
		mr.st.memoHits.Inc()
		mr.st.memoSaved.Add(e.cycles)
		return e, true
	}
	mr.st.memoMisses.Inc()
	mr.marks = append(mr.marks, memoMark{
		key:       key,
		serialLen: m.SerialLen(),
		detects:   m.DetectCount(),
		corrects:  m.CorrectCount(),
	})
	return memoEntry{}, false
}

// settle accounts a finished experiment — probes hashed, cycles a hit
// skipped — toward the cache's admission decision while it is still
// warming up, and counts the decision if this experiment made it.
func (mr *memoRun) settle(m *machine.Machine, probes int, saved uint64) {
	if mr.cache.state() != memoUndecided {
		return
	}
	switch mr.cache.account(saved, uint64(probes)*mr.probeCost(m)) {
	case memoAdmitted:
		mr.st.memoAdmitted.Inc()
	case memoRefused:
		mr.st.memoRefused.Inc()
	}
}

// populate stores one entry per recorded mark from the machine's final
// state: the run ended naturally (halt, exception, abort) or is settled
// as a Timeout (still running at the budget, which classifies
// identically from any earlier boundary because the budget is
// campaign-global).
func (mr *memoRun) populate(m *machine.Machine) {
	status, exc := m.Status(), m.Exception()
	det, cor, end := m.DetectCount(), m.CorrectCount(), m.Cycles()
	for _, mk := range mr.marks {
		e := memoEntry{
			status:   status,
			exc:      exc,
			detects:  det - mk.detects,
			corrects: cor - mk.corrects,
			cycles:   end - mk.key.cycle,
		}
		if status == machine.StatusHalted {
			e.serial = m.AppendSerialSuffix(nil, mk.serialLen)
		}
		mr.cache.insert(mk.key, e)
	}
	mr.marks = mr.marks[:0]
}

// populateComposed stores entries for a run whose remainder was not
// simulated but taken from tail, the entry it hit at a later boundary.
// The final observables are the machine's current values plus the
// tail's (its serial appended after the machine's current serial, its
// counter deltas added to the machine's counters, its cycles added to
// the machine's).
func (mr *memoRun) populateComposed(m *machine.Machine, tail memoEntry) {
	det := m.DetectCount() + tail.detects
	cor := m.CorrectCount() + tail.corrects
	end := m.Cycles() + tail.cycles
	for _, mk := range mr.marks {
		e := memoEntry{
			status:   tail.status,
			exc:      tail.exc,
			detects:  det - mk.detects,
			corrects: cor - mk.corrects,
			cycles:   end - mk.key.cycle,
		}
		if tail.status == machine.StatusHalted {
			e.serial = m.AppendSerialSuffix(nil, mk.serialLen)
			e.serial = append(e.serial, tail.serial...)
		}
		mr.cache.insert(mk.key, e)
	}
	mr.marks = mr.marks[:0]
}

// memoTail drives an injected experiment to its outcome with
// memoization on: advance boundary by boundary (interval cycles apart,
// see memoInterval), probing the cache at each; a hit composes the
// outcome from the cached remainder, a natural finish classifies
// normally and back-fills entries for every miss.
// Without memoization (mr == nil) or once the campaign has refused it,
// the experiment takes the one-call plain path — the exact pre-memo
// code — so a refused campaign pays one atomic load per experiment.
func memoTail(m *machine.Machine, golden *trace.Golden, budget, interval uint64, obj *Objective, mr *memoRun) Outcome {
	if mr == nil || mr.cache.state() == memoRefused {
		m.Run(budget)
		return classify(m, golden, obj)
	}
	mr.reset()
	for m.Status() == machine.StatusRunning && !mr.exhausted() {
		next := (m.Cycles()/interval + 1) * interval
		// Probing beyond the golden run's end is not useful: most runs
		// that survive past it are headed for the budget.
		if next >= golden.Cycles || next >= budget {
			break
		}
		// Break-even cutoff: a hit at this boundary can save at most the
		// remaining budget; once that drops below the probe's own cost,
		// probing is a guaranteed loss — and every later boundary is
		// closer to the budget still, so stop probing outright.
		if budget-next < mr.breakEvenCycles(m) {
			mr.st.memoGated.Inc()
			break
		}
		if m.Run(next) != machine.StatusRunning || m.Cycles() != next {
			break
		}
		if e, hit := mr.probe(m); hit {
			o := composeOutcome(obj, e.status, e.exc, m.SerialView(), e.serial,
				m.DetectCount()+e.detects, m.CorrectCount()+e.corrects, golden)
			mr.settle(m, len(mr.marks)+1, e.cycles)
			mr.populateComposed(m, e)
			return o
		}
	}
	m.Run(budget)
	o := classify(m, golden, obj)
	mr.settle(m, len(mr.marks), 0)
	mr.populate(m)
	return o
}
