package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultspace"
	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/progs"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// service-mix: a closed loop of two clients (tenants a and b, one
// connection each) against an in-process ServeCampaigns with a fresh
// archive and two local fleet workers of one executor each. Each client
// loops SubmitCampaign → status polls every pollInterval → report →
// check. About half the submissions are fresh campaigns (baseline kernels
// × six spaces × seed-chosen sizes, never repeated within a run); the
// other half resubmit a campaign of the hit pool, which set-up archived
// before the service started — the service answers those from its
// archive without executing an experiment.
const (
	pollInterval = 10 * time.Millisecond
	// opTimeout bounds one round trip; a slower one counts as failed.
	opTimeout = 60 * time.Second
	// maxReport bounds a fetched report, as faultspace.CampaignReport does.
	maxReport = 16 << 20
	// rssAtFresh is the fresh campaign after which peak_rss_mb is read.
	// The service keeps every campaign it has run in memory, so its
	// resident set grows with the number served; reading it after a fixed
	// number keeps a faster service from showing as a bigger one.
	rssAtFresh = 100
)

var tenants = []string{"a", "b"}

// serviceCampaign is one campaign a client can submit.
type serviceCampaign struct {
	v    *variant
	kind faultspace.SpaceKind
	id   string // campaign identity (hex), the service's campaign ID
}

// freshSizes are the registry sizes fresh campaigns are drawn from, per
// kernel: none is the registry default, so no fresh campaign shares an
// identity with the hit pool.
var freshSizes = map[string][]progs.Sizes{
	"bin_sem2": sizesOf(func(n int) progs.Sizes { return progs.Sizes{BinSemRounds: n} }, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11),
	"sync2":    sizesOf(func(n int) progs.Sizes { return progs.Sizes{SyncRounds: n} }, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11),
	"clock1":   sizesOf(func(n int) progs.Sizes { return progs.Sizes{ClockTicks: n} }, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11),
	"mbox1":    sizesOf(func(n int) progs.Sizes { return progs.Sizes{MboxMessages: n} }, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11),
	"preempt1": sizesOf(func(n int) progs.Sizes { return progs.Sizes{PreemptWork: n} }, 10, 15, 20, 25, 30, 35, 45, 50, 55, 60),
	"sort1":    sizesOf(func(n int) progs.Sizes { return progs.Sizes{SortElements: n} }, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14),
}

func sizesOf(f func(int) progs.Sizes, ns ...int) []progs.Sizes {
	out := make([]progs.Sizes, len(ns))
	for i, n := range ns {
		out[i] = f(n)
	}
	return out
}

// sizeLabel names the one size knob freshSizes varies.
func sizeLabel(kernel string, s progs.Sizes) string {
	switch kernel {
	case "bin_sem2":
		return fmt.Sprintf("rounds=%d", s.BinSemRounds)
	case "sync2":
		return fmt.Sprintf("rounds=%d", s.SyncRounds)
	case "clock1":
		return fmt.Sprintf("ticks=%d", s.ClockTicks)
	case "mbox1":
		return fmt.Sprintf("messages=%d", s.MboxMessages)
	case "preempt1":
		return fmt.Sprintf("work=%d", s.PreemptWork)
	case "sort1":
		return fmt.Sprintf("n=%d", s.SortElements)
	}
	return fmt.Sprintf("%+v", s)
}

// serviceCandidates lists every fresh campaign a seed can choose.
func serviceCandidates() []serviceCampaign {
	var out []serviceCampaign
	for _, k := range kernels {
		for _, s := range freshSizes[k] {
			v := &variant{kernel: k, sizes: s}
			for _, kind := range spaces {
				out = append(out, serviceCampaign{v: v, kind: kind})
			}
		}
	}
	return out
}

// freshOrder expands the workload seed into the order in which fresh
// campaigns are submitted. The candidates are grouped by kernel and
// space; the seed shuffles the sizes within each group and the order of
// the groups, and the order deals one campaign from each group in turn.
// Any prefix of the order so holds nearly the same mix of kernels and
// spaces whatever the seed: report sizes differ a hundredfold between
// spaces, and an unstratified draw made latency and memory move with the
// seed.
func freshOrder(seed int64) []serviceCampaign {
	rng := seeded(seed, -1)
	type key struct {
		kernel string
		kind   faultspace.SpaceKind
	}
	var keys []key
	groups := make(map[key][]serviceCampaign)
	for _, c := range serviceCandidates() {
		k := key{c.v.kernel, c.kind}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range keys {
		g := groups[k]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	order := rng.Perm(len(keys))
	var out []serviceCampaign
	for round := 0; round < len(groups[keys[0]]); round++ {
		for _, ki := range order {
			out = append(out, groups[keys[ki]][round])
		}
	}
	return out
}

// serviceHitPool lists the campaigns set-up archives: every kernel at its
// registry default size, in the memory and register spaces.
func serviceHitPool() []serviceCampaign {
	var out []serviceCampaign
	for _, k := range kernels {
		v := &variant{kernel: k}
		for _, kind := range []faultspace.SpaceKind{faultspace.SpaceMemory, faultspace.SpaceRegisters} {
			out = append(out, serviceCampaign{v: v, kind: kind})
		}
	}
	return out
}

// svcRun is the state of one service-mix run.
type svcRun struct {
	cfg    *config
	fresh  []serviceCampaign // in the seed's order
	pool   []serviceCampaign
	next   atomic.Int64 // next unused entry of fresh
	phases int          // measured phases so far; numbers the clients' streams

	archive string // the running service's archive directory
	addr    string
	stop    chan struct{}
	served  chan error
	clients *countingTransport
}

// countingTransport carries the clients' requests over at most two
// connections and counts every connection it opens.
type countingTransport struct {
	*http.Transport
	dials atomic.Int64
}

func newClientTransport() *countingTransport {
	ct := &countingTransport{}
	var d net.Dialer
	ct.Transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			ct.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:       len(tenants),
		MaxIdleConnsPerHost:   len(tenants),
		ResponseHeaderTimeout: opTimeout,
	}
	return ct
}

// splitTransport sends the fleet workers' protocol requests and the
// clients' requests over separate connection pools. The library's client
// calls and the in-process workers all use http.DefaultClient, so this is
// what lets the clients' connections be limited and counted on their own.
type splitTransport struct{ clients, fleet http.RoundTripper }

func (s splitTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasPrefix(r.URL.Path, "/v1/campaigns") || r.URL.Path == "/v1/status" {
		return s.clients.RoundTrip(r)
	}
	return s.fleet.RoundTrip(r)
}

func serviceMix(cfg *config) (*outcome, error) {
	var st *tracer
	if cfg.traced {
		st = newTracer()
	}
	run := &svcRun{cfg: cfg, pool: serviceHitPool(), fresh: freshOrder(cfg.seed)}
	fleet := &http.Transport{MaxIdleConnsPerHost: 8}
	defer func() {
		http.DefaultClient.Transport = nil
		fleet.CloseIdleConnections()
	}()

	setups, err := timeSetups(func() error {
		if run.stop != nil {
			if err := run.shutdown(); err != nil {
				return err
			}
		}
		return run.setup(st, fleet)
	})
	if err != nil {
		if run.stop != nil {
			run.shutdown()
		}
		return nil, err
	}
	out := newOutcome()
	out.values["setup_s"] = median(setups)
	out.samples["setup_s"] = len(setups)

	untraced := run.phase(nil, phaseBudget(cfg))
	var traced *svcStats
	var allocMB, pauseMS float64
	if cfg.traced {
		mem := startMem()
		traced = run.phase(st, phaseBudget(cfg))
		allocMB, pauseMS = mem.end()
	}
	if err := run.shutdown(); err != nil {
		return nil, err
	}
	if d := run.clients.dials.Load(); d > int64(len(tenants)) {
		untraced.fail("service-mix: clients opened %d connections, limit %d", d, len(tenants))
	}
	out.notes = append(out.notes, fmt.Sprintf("client connections opened: %d", run.clients.dials.Load()))
	if !cfg.traced {
		untraced.fill(run, out)
		return out, nil
	}
	out.attempted = untraced.attempted + traced.attempted
	out.failed = untraced.failed + traced.failed
	traced.layers(st, out)
	v := out.values
	ops := float64(len(traced.freshMS) + len(traced.hitMS))
	v["progs.build_ms"] = st.ms("progs.build") / setupRepeats
	v["runtime.alloc_mb"] = div(allocMB, ops)
	v["runtime.gc_pause_ms"] = div(pauseMS, ops)
	v["bench.trace_overhead_frac"] = overhead(untraced.rate(), traced.rate())
	if err := finishTrace(cfg, st, out, "bench.roundtrip", "client-"); err != nil {
		return nil, err
	}
	return out, nil
}

// setup builds every program, archives the hit pool's reports into a
// fresh archive directory, starts the service with its two fleet workers
// and waits until a status request answers.
func (r *svcRun) setup(tr *tracer, fleet http.RoundTripper) error {
	built := make(map[*variant]bool)
	for _, c := range append(append([]serviceCampaign(nil), r.pool...), r.fresh...) {
		if !built[c.v] {
			built[c.v] = true
			if err := c.v.build(tr, benchScope); err != nil {
				return err
			}
		}
	}
	dir, err := os.MkdirTemp(r.cfg.work, "archive-")
	if err != nil {
		return err
	}
	r.archive = dir
	store, err := service.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	for i, c := range r.pool {
		id, rep, err := localReport(c.v.prog, c.kind)
		if err != nil {
			return err
		}
		if err := r.cfg.refs.checkScan(id, rep); err != nil {
			return fmt.Errorf("hit pool: %w", err)
		}
		var key [32]byte
		if _, err := hex.Decode(key[:], []byte(id)); err != nil {
			return err
		}
		if err := store.Put(key, rep); err != nil {
			return err
		}
		r.pool[i].id = id
	}
	for i, c := range r.fresh {
		id, err := faultspace.CampaignIdentity(c.v.prog, faultspace.ScanOptions{Space: c.kind})
		if err != nil {
			return err
		}
		r.fresh[i].id = fmt.Sprintf("%x", id)
	}

	r.clients = newClientTransport()
	http.DefaultClient.Transport = splitTransport{clients: r.clients, fleet: fleet}
	r.stop = make(chan struct{})
	r.served = make(chan error, 1)
	listening := make(chan string, 1)
	go func() {
		r.served <- faultspace.ServeCampaigns("127.0.0.1:0", faultspace.CampaignServiceOptions{
			ArchiveDir:    dir,
			LocalWorkers:  2,
			WorkerOptions: faultspace.JoinOptions{Workers: 1, Predecode: true},
			Interrupt:     r.stop,
			OnListen:      func(a string) { listening <- a },
		})
	}()
	select {
	case r.addr = <-listening:
	case err := <-r.served:
		r.stop = nil
		return fmt.Errorf("service: %v", err)
	}
	deadline := time.Now().Add(opTimeout)
	for {
		resp, err := http.Get("http://" + r.addr + "/v1/status")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service status: no answer within %s", opTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// shutdown drains the service and waits until it and its workers exit.
func (r *svcRun) shutdown() error {
	close(r.stop)
	err := <-r.served
	r.stop = nil
	r.clients.CloseIdleConnections()
	if rerr := os.RemoveAll(r.archive); err == nil {
		err = rerr
	}
	return err
}

// svcStats is what one measured phase of service-mix counted.
type svcStats struct {
	mu sync.Mutex
	tally
	elapsed     time.Duration
	experiments int       // executed by the fleet for fresh campaigns
	freshMS     []float64 // submit → verified report
	hitMS       []float64
	hits        int // answers flagged Cached
	refused     int // 429 or 503 answers
	reportBytes int
	rssMB       float64         // peak RSS when the rssAtFresh-th fresh campaign verified
	cycles      uint64          // traced: golden cycles of the submissions
	classes     int             // traced: pruned classes of the submissions
	campaigns   []fleetCampaign // traced: per fresh campaign, from the service
}

// fleetCampaign is what the service recorded about one fresh campaign.
type fleetCampaign struct {
	latencyMS float64
	spanMS    map[string]float64 // total per fleet span name
	waitMS    float64            // union of worker.wait intervals
	granted   uint64
	expired   uint64
	dupes     uint64
}

func (s *svcStats) rate() float64 {
	return float64(len(s.freshMS)+len(s.hitMS)) / s.elapsed.Seconds()
}

func (s *svcStats) fill(r *svcRun, out *outcome) {
	out.attempted, out.failed = s.attempted, s.failed
	out.values["campaigns_per_s"] = s.rate()
	out.samples["campaigns_per_s"] = len(s.freshMS) + len(s.hitMS)
	out.values["experiments_per_s"] = float64(s.experiments) / s.elapsed.Seconds()
	out.samples["experiments_per_s"] = len(s.freshMS)
	out.values["fresh_p50_ms"] = percentile(s.freshMS, 50)
	out.values["fresh_p90_ms"] = percentile(s.freshMS, 90)
	out.samples["fresh_p50_ms"] = len(s.freshMS)
	out.samples["fresh_p90_ms"] = len(s.freshMS)
	out.values["peak_rss_mb"] = s.rssMB
	if s.rssMB == 0 {
		out.values["peak_rss_mb"], _ = peakRSSMB()
	}
	out.notes = append(out.notes,
		fmt.Sprintf("hit_p50_ms %.4f ms  n=%d", percentile(s.hitMS, 50), len(s.hitMS)),
		fmt.Sprintf("hit_p90_ms %.4f ms  n=%d", percentile(s.hitMS, 90), len(s.hitMS)))
	if over := r.next.Load() - int64(len(r.fresh)); over > 0 {
		out.notes = append(out.notes, fmt.Sprintf("WARNING: all %d fresh campaigns used; %d fresh draws became resubmissions", len(r.fresh), over))
	}
	if len(s.freshMS) < rssAtFresh || len(s.hitMS) < 100 {
		out.notes = append(out.notes, fmt.Sprintf("WARNING: fewer than 100 fresh (%d) or hit (%d) samples", len(s.freshMS), len(s.hitMS)))
	}
}

// layers sets the per-layer metrics of a traced phase.
func (s *svcStats) layers(tr *tracer, out *outcome) {
	v := out.values
	ops := float64(len(s.freshMS) + len(s.hitMS))
	fresh := float64(len(s.campaigns))
	v["trace.golden_ms"] = div(tr.ms("trace.golden"), ops)
	v["trace.cycles_per_us"] = div(float64(s.cycles), tr.ms("trace.golden")*1e3)
	v["pruning.classes"] = div(float64(s.classes), ops)
	v["pruning.build_ms"] = div(tr.ms("pruning.build"), ops)
	v["service.submit_ms"] = div(tr.ms("service.submit"), ops)
	v["service.queued_ms"] = div(tr.ms("service.queued"), fresh)
	v["service.running_ms"] = div(tr.ms("service.running"), fresh)
	v["service.report_ms"] = div(tr.ms("service.report"), ops)
	v["archive.decode_ms"] = div(tr.ms("archive.decode"), ops)
	v["archive.report_bytes"] = div(float64(s.reportBytes), ops)
	v["service.archive_hits"] = float64(s.hits)
	v["service.refused"] = float64(s.refused)
	v["service.hit_p50_ms"] = div(percentile(s.hitMS, 50), 1)
	v["service.hit_p90_ms"] = div(percentile(s.hitMS, 90), 1)
	var granted, useful uint64
	var waits, rampups, lat []float64
	for _, c := range s.campaigns {
		for _, name := range []string{"wait", "lease", "submit", "rebuild"} {
			v["cluster."+name+"_ms"] += c.spanMS["worker."+name] / fresh
		}
		v["cluster.rampup_ms"] += c.spanMS["campaign.rampup"] / fresh
		rampups = append(rampups, c.spanMS["campaign.rampup"])
		granted += c.granted
		useful += c.granted - c.expired - c.dupes
		waits = append(waits, c.waitMS)
		lat = append(lat, c.latencyMS)
	}
	if granted > 0 {
		v["cluster.useful_lease_ratio"] = float64(useful) / float64(granted)
	}
	v["cluster.wait_share_of_fresh_p50"] = div(median(waits), median(lat))
	v["cluster.rampup_share_of_fresh_p50"] = div(median(rampups), median(lat))
	out.notes = append(out.notes, fmt.Sprintf("fresh campaigns traced: %d; medians: latency %.1f ms, worker.wait union %.1f ms, campaign.rampup %.1f ms",
		len(s.campaigns), median(lat), median(waits), median(rampups)))
}

// phase runs both clients until budget has elapsed.
func (r *svcRun) phase(tr *tracer, budget time.Duration) *svcStats {
	s := &svcStats{}
	r.phases++
	t0 := time.Now()
	deadline := t0.Add(budget)
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			rng := seeded(r.cfg.seed, int64(1000*r.phases+i))
			for time.Now().Before(deadline) {
				// Once every fresh candidate is used, only resubmissions
				// remain; the run notes how often that happened.
				if rng.Intn(2) == 0 {
					if n := int(r.next.Add(1)) - 1; n < len(r.fresh) {
						r.roundTrip(tr, "client-"+tenant, tenant, r.fresh[n], true, s)
						continue
					}
				}
				r.roundTrip(tr, "client-"+tenant, tenant, r.pool[rng.Intn(len(r.pool))], false, s)
			}
		}(i, tenant)
	}
	wg.Wait()
	s.elapsed = time.Since(t0)
	return s
}

// roundTrip submits one campaign, polls it to completion, fetches and
// checks its report. Traced, it then reads the campaign's fleet timeline
// and counters from the service, outside the timed round trip.
func (r *svcRun) roundTrip(tr *tracer, scope, tenant string, c serviceCampaign, fresh bool, s *svcStats) {
	s.mu.Lock()
	s.attempted++
	s.mu.Unlock()
	fail := func(format string, args ...any) {
		s.mu.Lock()
		s.fail("service-mix %s/%s: "+format, append([]any{c.v.name(), c.kind}, args...)...)
		s.mu.Unlock()
	}
	endTrip := tr.start(scope, "bench.roundtrip")
	t0 := time.Now()
	end := tr.start(scope, "service.submit")
	var info faultspace.CampaignInfo
	var err error
	if tr == nil {
		info, err = faultspace.SubmitCampaign(r.addr, c.v.prog, faultspace.ScanOptions{Predecode: true, Space: c.kind}, tenant)
	} else {
		var cycles uint64
		var classes int
		info, cycles, classes, err = tracedSubmit(tr, scope, r.addr, c, tenant)
		s.mu.Lock()
		s.cycles += cycles
		s.classes += classes
		s.mu.Unlock()
	}
	end()
	if err != nil {
		endTrip()
		if strings.Contains(err.Error(), "HTTP 429") || strings.Contains(err.Error(), "HTTP 503") {
			s.mu.Lock()
			s.refused++
			s.mu.Unlock()
		}
		fail("submit: %v", err)
		return
	}
	if info.ID != c.id {
		endTrip()
		fail("service named the campaign %s, expected %s", info.ID, c.id)
		return
	}
	if info.Cached == fresh {
		endTrip()
		fail("cached=%v for a %s submission", info.Cached, map[bool]string{true: "fresh", false: "repeat"}[fresh])
		return
	}
	phase, since := info.State, time.Now()
	for !info.Terminal() {
		if time.Since(t0) > opTimeout {
			endTrip()
			fail("no result within %s", opTimeout)
			return
		}
		time.Sleep(pollInterval)
		info, err = faultspace.CampaignState(r.addr, info.ID)
		if err != nil {
			endTrip()
			fail("status: %v", err)
			return
		}
		if info.State != phase {
			now := time.Now()
			tr.add(telemetry.Span{Scope: scope, Name: "service." + phase, Start: since, Dur: now.Sub(since)})
			phase, since = info.State, now
		}
	}
	if info.State != service.StateDone {
		endTrip()
		fail("campaign ended %s: %s", info.State, info.Error)
		return
	}
	end = tr.start(scope, "service.report")
	report, err := fetchReport(tr, scope, r.addr, info.ID)
	end()
	if err == nil {
		err = r.cfg.refs.checkScan(c.id, report)
	}
	lat := float64(time.Since(t0).Microseconds()) / 1e3
	endTrip()
	if err != nil {
		fail("report: %v", err)
		return
	}
	s.mu.Lock()
	s.reportBytes += len(report)
	if fresh {
		s.freshMS = append(s.freshMS, lat)
		s.experiments += info.Total
		if len(s.freshMS) == rssAtFresh {
			s.rssMB, _ = peakRSSMB()
		}
	} else {
		s.hitMS = append(s.hitMS, lat)
		s.hits++
	}
	s.mu.Unlock()
	if tr != nil && fresh {
		fc, err := readFleet(tr, r.addr, info.ID)
		if err != nil {
			fail("fleet trace: %v", err)
			return
		}
		fc.latencyMS = lat
		s.mu.Lock()
		s.campaigns = append(s.campaigns, fc)
		s.mu.Unlock()
	}
}

// fetchReport GETs a campaign's report and decodes it with LoadScan,
// which is what faultspace.CampaignReport does; the raw bytes are kept
// for the byte-for-byte check.
func fetchReport(tr *tracer, scope, addr, id string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + "/v1/campaigns/" + url.PathEscape(id) + "/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxReport))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	end := tr.start(scope, "archive.decode")
	_, err = faultspace.LoadScan(bytes.NewReader(body))
	end()
	if err != nil {
		return nil, err
	}
	return body, nil
}

// tracedSubmit is faultspace.SubmitCampaign taken apart so the golden run
// and pruning get their own spans inside service.submit. It also returns
// the golden run's cycles and the pruned class count.
func tracedSubmit(tr *tracer, scope, addr string, c serviceCampaign, tenant string) (info faultspace.CampaignInfo, cycles uint64, classes int, err error) {
	t := faultspace.Target(c.v.prog)
	end := tr.start(scope, "trace.golden")
	golden, err := trace.Record(t.Name, t.Mach, t.Code, t.Image, faultspace.DefaultMaxGoldenCycles)
	end()
	if err != nil {
		return info, 0, 0, err
	}
	end = tr.start(scope, "pruning.build")
	fs, err := buildSpace(c.kind, golden, t)
	end()
	if err != nil {
		return info, 0, 0, err
	}
	cycles, classes = golden.Cycles, len(fs.Classes)
	spec, err := cluster.NewSpec(t, fs.Kind, campaign.Config{Predecode: true}, faultspace.DefaultMaxGoldenCycles, uint64(classes))
	if err != nil {
		return info, cycles, classes, err
	}
	resp, err := http.Post("http://"+addr+"/v1/campaigns?tenant="+url.QueryEscape(tenant), "application/octet-stream", bytes.NewReader(cluster.EncodeSpec(spec)))
	if err != nil {
		return info, cycles, classes, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return info, cycles, classes, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return info, cycles, classes, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return info, cycles, classes, json.Unmarshal(body, &info)
}

// readFleet fetches a finished campaign's fleet timeline and counters
// from the service, adds the spans to the benchmark's trace under
// "fleet <thread>" scopes, and totals them per span name.
func readFleet(tr *tracer, addr, id string) (fleetCampaign, error) {
	fc := fleetCampaign{spanMS: make(map[string]float64)}
	base := "http://" + addr + "/v1/campaigns/" + url.PathEscape(id)
	body, err := getBody(base + "/trace")
	if err != nil {
		return fc, err
	}
	var doc timeline
	if err := json.Unmarshal(body, &doc); err != nil {
		return fc, err
	}
	threads := make(map[int]string)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threads[ev.Tid] = ev.Args.Name
		}
	}
	var waits [][2]float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		start := time.Unix(0, int64(ev.Ts*1e3))
		dur := time.Duration(ev.Dur * 1e3)
		tr.add(telemetry.Span{Scope: "fleet " + threads[ev.Tid], Name: ev.Name, Start: start, Dur: dur})
		fc.spanMS[ev.Name] += ev.Dur / 1e3
		if ev.Name == "worker.wait" {
			waits = append(waits, [2]float64{ev.Ts, ev.Ts + ev.Dur})
		}
	}
	fc.waitMS = unionLength(waits) / 1e3
	body, err = getBody(base)
	if err != nil {
		return fc, err
	}
	var st struct {
		Telemetry *struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fc, err
	}
	if st.Telemetry == nil {
		return fc, errors.New("status carries no campaign telemetry")
	}
	fc.granted = st.Telemetry.Counters["cluster.leases_granted"]
	fc.expired = st.Telemetry.Counters["cluster.leases_expired"]
	fc.dupes = st.Telemetry.Counters["cluster.duplicate_submits"]
	return fc, nil
}

func getBody(u string) ([]byte, error) {
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxReport))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return body, nil
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, lo, hi := 0.0, iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}
