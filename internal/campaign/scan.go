package campaign

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// Result holds the outcome of a full fault-space scan: one classified
// outcome per def/use equivalence class.
type Result struct {
	Target Target
	Golden *trace.Golden
	Space  *pruning.FaultSpace
	// Outcomes is parallel to Space.Classes.
	Outcomes []Outcome
	// Identity is the campaign identity hash (see Target.CampaignIdentity);
	// zero for results reconstructed from archives that predate it.
	Identity [32]byte
}

// ErrInterrupted is returned by a scan stopped via Config.Interrupt. The
// partial Result is returned alongside it: outcomes of classes that did
// not run yet are zero (OutcomeNoEffect) and must not be analyzed —
// resume the scan instead.
var ErrInterrupted = errors.New("campaign: scan interrupted")

// FullScan runs one fault-injection experiment per equivalence class of the
// pruned fault space and classifies every outcome. The scan is exhaustive:
// together with the a-priori-known "No Effect" coordinates the result
// determines the outcome of every coordinate of the raw fault space.
func FullScan(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config) (*Result, error) {
	return ResumeScan(t, golden, fs, cfg, nil)
}

// ResumeScan is FullScan continuing a partially-completed campaign:
// classes present in prior (keyed by class index) keep their recorded
// outcome and are not re-executed; only the remaining classes run. The
// caller is responsible for prior actually belonging to this campaign —
// the checkpoint layer enforces that with the campaign identity hash.
//
// Completed experiments stream through Config.OnResult and progress
// events through Config.OnProgress; Config.Interrupt stops the scan
// early with ErrInterrupted after flushing all finished experiments.
func ResumeScan(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, prior map[int]Outcome) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Target:   t,
		Golden:   golden,
		Space:    fs,
		Outcomes: make([]Outcome, len(fs.Classes)),
	}
	id, err := t.CampaignIdentity(fs.Kind, cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: identity: %w", err)
	}
	res.Identity = id

	if cfg, err = cfg.bindMemo(id, golden.Cycles); err != nil {
		return nil, err
	}

	for ci, o := range prior {
		if ci < 0 || ci >= len(fs.Classes) {
			return nil, fmt.Errorf("campaign: resume class index %d outside [0, %d)", ci, len(fs.Classes))
		}
		if !o.Known() {
			return nil, fmt.Errorf("campaign: resume class %d has unknown outcome %d", ci, o)
		}
		res.Outcomes[ci] = o
	}
	todo := make([]int, 0, len(fs.Classes)-len(prior))
	for i := range fs.Classes {
		if _, ok := prior[i]; !ok {
			todo = append(todo, i)
		}
	}

	m := newMeter(cfg, len(fs.Classes), prior)
	defer m.finish()
	if len(todo) == 0 {
		return res, nil
	}
	st := newScanTel(cfg)
	sp := cfg.Spans.Start("scan.run")
	scanErr := cfg.Strategy.scan()(t, golden, fs, cfg, todo, res.Outcomes, m, st)
	if sp.Live() {
		sp.End(fmt.Sprintf("%s: %d classes", cfg.Strategy, len(todo)))
	}
	if cfg.MemoCache != nil {
		cfg.Telemetry.Gauge("memo.entries").Set(int64(cfg.MemoCache.Len()))
	}
	if scanErr != nil {
		if errors.Is(scanErr, ErrInterrupted) {
			// Partial result: everything completed so far has been
			// recorded (and checkpointed via OnResult).
			return res, scanErr
		}
		return nil, scanErr
	}
	return res, nil
}

// slotGroup is the unit of work handed to scan workers: all classes whose
// representative injection slot is the same, plus the machine state right
// before that slot.
type slotGroup struct {
	snap    *machine.Snapshot
	classes []int // indices into fs.Classes
}

// record is one completed experiment streaming from a worker to the
// collector.
type record struct {
	class   int
	outcome Outcome
}

// flipFunc injects one fault into a machine at a raw space coordinate
// (the bit/position dimension; the slot dimension is when it is called).
type flipFunc func(*machine.Machine, uint64) error

// flipFor selects the injection primitive for a fault-space kind.
func flipFor(kind pruning.SpaceKind) flipFunc {
	switch kind {
	case pruning.SpaceRegisters:
		return (*machine.Machine).FlipRegBit
	case pruning.SpaceSkip:
		return func(m *machine.Machine, _ uint64) error {
			m.FlipSkip()
			return nil
		}
	case pruning.SpacePC:
		return (*machine.Machine).FlipPCBit
	case pruning.SpaceBurst2:
		return func(m *machine.Machine, pos uint64) error {
			return m.FlipBurst(2, pos)
		}
	case pruning.SpaceBurst4:
		return func(m *machine.Machine, pos uint64) error {
			return m.FlipBurst(4, pos)
		}
	}
	return (*machine.Machine).FlipBit
}

// collector drains completed experiments into the outcome slice and the
// meter from a single goroutine, so OnResult/OnProgress callbacks and
// checkpoint writers never need locking. It returns a channel closed
// when the results channel has been fully drained.
func collector(results <-chan record, out []Outcome, m *meter) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range results {
			out[r.class] = r.outcome
			m.record(r.class, r.outcome)
		}
	}()
	return done
}

// scanFunc is a strategy's executor: it runs the todo classes, writing
// each outcome into out and through the meter.
type scanFunc func(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, todo []int, out []Outcome, m *meter, st *scanTel) error

// scan returns the strategy's executor (validate has rejected unknown
// strategies, and withDefaults resolved the zero value to snapshot).
func (s Strategy) scan() scanFunc {
	if s == StrategyRerun {
		return scanRerun
	}
	return scanSnapshot
}

// scanFail reports a worker error at most once and raises the stop flag.
// Workers keep draining their work channel after failing (doing nothing)
// so the feeder can never deadlock on a send to a channel nobody reads —
// the bug the regression test TestWorkerErrorNoDeadlock pins down.
func scanFail(stop *atomic.Bool, errCh chan<- error, err error) {
	stop.Store(true)
	select {
	case errCh <- err:
	default:
	}
}

func scanSnapshot(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, todo []int, out []Outcome, m *meter, st *scanTel) error {
	budget := cfg.timeoutBudget(golden.Cycles)
	interval := cfg.memoInterval(golden.Cycles)
	flip := flipFor(fs.Kind)

	var machines []*machine.Machine
	defer func() { cfg.releaseMachines(machines) }()

	pioneer, err := cfg.acquireMachine(t)
	if err != nil {
		return err
	}
	machines = append(machines, pioneer)

	groups := make(chan slotGroup)
	results := make(chan record, cfg.Workers*2)
	errCh := make(chan error, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		worker, err := cfg.acquireMachine(t)
		if err != nil {
			close(groups)
			wg.Wait()
			close(results)
			return err
		}
		machines = append(machines, worker)
		mr := newMemoRun(cfg.MemoCache, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range groups {
				for _, ci := range g.classes {
					// Interrupt granularity is per experiment, not per
					// slot group: a single group can hold thousands of
					// classes, and a SIGINT must not wait them out.
					select {
					case <-cfg.Interrupt:
						scanFail(&stop, errCh, ErrInterrupted)
					default:
					}
					if stop.Load() {
						break
					}
					t0 := st.begin()
					worker.Restore(g.snap)
					if err := flip(worker, fs.Classes[ci].Bit); err != nil {
						scanFail(&stop, errCh, err)
						break
					}
					o := memoTail(worker, golden, budget, interval, cfg.Objective, mr)
					st.experiment(o, t0)
					results <- record{class: ci, outcome: o}
				}
			}
		}()
	}
	collected := collector(results, out, m)

	// Walk remaining classes grouped by slot, advancing the pioneer to
	// slot-1 cycles before snapshotting. Classes (and therefore todo) are
	// sorted by (Slot, Bit).
	feed := func() error {
		for i := 0; i < len(todo); {
			slot := fs.Classes[todo[i]].Slot()
			j := i
			for j < len(todo) && fs.Classes[todo[j]].Slot() == slot {
				j++
			}
			if pioneer.Cycles() < slot-1 {
				if st := pioneer.Run(slot - 1); st != machine.StatusRunning {
					return fmt.Errorf("campaign: golden replay ended early at cycle %d (status %s), slot %d",
						pioneer.Cycles(), st, slot)
				}
			}
			select {
			case <-cfg.Interrupt:
				return ErrInterrupted
			case err := <-errCh:
				return err
			case groups <- slotGroup{snap: pioneer.Snapshot(), classes: todo[i:j]}:
			}
			i = j
		}
		return nil
	}
	spFeed := st.spans.Start("scan.golden_prefix")
	ferr := feed()
	if spFeed.Live() {
		spFeed.End(fmt.Sprintf("pioneer feed: %d classes", len(todo)))
	}
	close(groups)
	wg.Wait()
	close(results)
	<-collected
	if ferr != nil {
		return ferr
	}
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
}

func scanRerun(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, todo []int, out []Outcome, m *meter, st *scanTel) error {
	budget := cfg.timeoutBudget(golden.Cycles)
	flip := flipFor(fs.Kind)

	var machines []*machine.Machine
	defer func() { cfg.releaseMachines(machines) }()

	work := make(chan int)
	results := make(chan record, cfg.Workers*2)
	errCh := make(chan error, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		worker, err := cfg.acquireMachine(t)
		if err != nil {
			close(work)
			wg.Wait()
			close(results)
			return err
		}
		machines = append(machines, worker)
		reset := worker.Snapshot()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				select {
				case <-cfg.Interrupt:
					scanFail(&stop, errCh, ErrInterrupted)
				default:
				}
				if stop.Load() {
					continue
				}
				t0 := st.begin()
				worker.Restore(reset)
				o, err := runFromReset(worker, golden, fs.Classes[ci].Slot(), fs.Classes[ci].Bit, budget, flip, cfg.Objective)
				if err != nil {
					scanFail(&stop, errCh, err)
					continue
				}
				st.experiment(o, t0)
				results <- record{class: ci, outcome: o}
			}
		}()
	}
	collected := collector(results, out, m)

	var ferr error
feed:
	for _, ci := range todo {
		select {
		case <-cfg.Interrupt:
			ferr = ErrInterrupted
			break feed
		case ferr = <-errCh:
			break feed
		case work <- ci:
		}
	}
	close(work)
	wg.Wait()
	close(results)
	<-collected
	if ferr != nil {
		return ferr
	}
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
}

// runFromReset drives a reset-state machine through one experiment:
// replay the golden prefix to just before `slot`, inject via flip at
// `bit`, run to termination (or the cycle budget) and classify — plainly,
// without memoization: it backs the rerun reference and the brute-force
// oracle.
func runFromReset(m *machine.Machine, golden *trace.Golden, slot, bit, budget uint64, flip flipFunc, obj *Objective) (Outcome, error) {
	if slot > 0 {
		if st := m.Run(slot - 1); slot-1 > 0 && st != machine.StatusRunning {
			return 0, fmt.Errorf("campaign: golden replay ended early at cycle %d (status %s), slot %d",
				m.Cycles(), st, slot)
		}
	}
	if err := flip(m, bit); err != nil {
		return 0, err
	}
	m.Run(budget)
	return classify(m, golden, obj), nil
}

// RunSingle executes exactly one memory fault-injection experiment at the
// raw fault-space coordinate (slot, bit), starting from the reset state.
// It is the brute-force path used by validation tests and the sampler.
func RunSingle(t Target, golden *trace.Golden, cfg Config, slot, bit uint64) (Outcome, error) {
	return RunSingleSpace(t, golden, cfg, pruning.SpaceMemory, slot, bit)
}

// RunSingleSpace is RunSingle for an arbitrary fault-space kind.
func RunSingleSpace(t Target, golden *trace.Golden, cfg Config, kind pruning.SpaceKind, slot, bit uint64) (Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if slot == 0 || slot > golden.Cycles {
		return 0, fmt.Errorf("campaign: slot %d outside [1, %d]", slot, golden.Cycles)
	}
	m, err := t.newMachine()
	if err != nil {
		return 0, err
	}
	// Deliberately plain (no predecode, no memo): this is the brute-force
	// oracle the validation tests compare the optimized scan paths to.
	return runFromReset(m, golden, slot, bit, cfg.timeoutBudget(golden.Cycles), flipFor(kind), cfg.Objective)
}
