package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/telemetry/promtest"
)

// chromeDoc mirrors the Chrome trace-event JSON contract under test.
type chromeDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// leaseAs drives the lease endpoint directly, as a protocol-level worker.
func leaseAs(t *testing.T, url string, id [32]byte, workerID string) WorkUnit {
	t.Helper()
	resp, err := http.Post(url+"/v1/lease", "application/octet-stream",
		bytes.NewReader(EncodeLeaseRequest(LeaseRequest{Identity: id, WorkerID: workerID})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease as %s: HTTP %d: %s", workerID, resp.StatusCode, body)
	}
	u, err := DecodeWorkUnit(body)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// submitAs submits the unit's full outcome set as the given worker.
func submitAs(t *testing.T, url string, id [32]byte, workerID string, u WorkUnit, outcomes []campaign.Outcome) {
	t.Helper()
	entries := make([]checkpoint.Entry, len(u.Classes))
	for i, ci := range u.Classes {
		entries[i] = checkpoint.Entry{Class: ci, Outcome: uint8(outcomes[ci])}
	}
	s := Submission{Identity: id, WorkerID: workerID, UnitID: u.ID, Token: u.Token, Entries: entries}
	resp, err := http.Post(url+"/v1/submit", "application/octet-stream", bytes.NewReader(EncodeSubmission(s)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit as %s: HTTP %d", workerID, resp.StatusCode)
	}
}

// TestIdentityIgnoresTraceID pins the identity half of invariant 15:
// the trace ID is observability identity only. Two specs of the same
// campaign mint distinct trace IDs yet share one campaign identity
// hash, so re-running a campaign under a new trace still hits the
// archive and admits the same workers.
func TestIdentityIgnoresTraceID(t *testing.T) {
	tgt, _, fs := testCampaign(t, "bin_sem2")
	classes := uint64(len(fs.Classes))
	s1, err := NewSpec(tgt, pruning.SpaceMemory, campaign.Config{}, testMaxGolden, classes)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSpec(tgt, pruning.SpaceMemory, campaign.Config{}, testMaxGolden, classes)
	if err != nil {
		t.Fatal(err)
	}
	if s1.TraceID.IsZero() || s2.TraceID.IsZero() {
		t.Fatal("NewSpec must mint a trace ID")
	}
	if s1.TraceID == s2.TraceID {
		t.Error("two specs share a trace ID; timelines would collide")
	}
	if s1.Identity != s2.Identity {
		t.Error("campaign identity differs across trace IDs; the trace ID leaked into the hash")
	}
}

// TestFleetTraceTimeline runs a real coordinator-plus-two-workers fleet
// and proves the merged timeline told the campaign's whole story: the
// /v1/trace export is well-formed Chrome trace-event JSON carrying the
// campaign trace ID, it names the coordinator and both worker scopes,
// and the non-root spans cover at least 95% of the campaign's wall time
// — while the scan report stays placement-equivalent to a local run.
func TestFleetTraceTimeline(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "bin_sem2")
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        8,
		MaxGoldenCycles: testMaxGolden,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coord.TraceID().IsZero() {
		t.Fatal("NewSpec must mint a trace ID for every cluster campaign")
	}
	res, errs := runCluster(t, coord, []WorkerOptions{
		{ID: "wa"},
		{ID: "wb", Strategy: campaign.StrategyRerun},
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	// Invariant 15: tracing is identification, never configuration — the
	// report must be byte-identical to an untraced local scan's.
	assertPlacementEquivalent(t, tgt, golden, fs, res)

	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace: HTTP %d", resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/v1/trace: decode: %v", err)
	}
	if got := doc.OtherData["traceId"]; got != coord.TraceID().String() {
		t.Errorf("trace document id %q, want %q", got, coord.TraceID())
	}

	// Thread metadata must name every scope that produced spans —
	// the coordinator and both workers.
	scopeOf := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			scopeOf[ev.Tid] = ev.Args["name"]
		}
	}
	seen := map[string]bool{}
	for _, name := range scopeOf {
		seen[name] = true
	}
	for _, want := range []string{"coordinator", "wa", "wb"} {
		if !seen[want] {
			t.Errorf("timeline has no %q thread (scopes: %v)", want, scopeOf)
		}
	}

	// The campaign root span anchors the wall-time window.
	var campStart, campEnd float64
	haveRoot := false
	type iv struct{ lo, hi float64 }
	var others []iv
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		names[ev.Name] = true
		if ev.Name == "campaign" {
			haveRoot = true
			campStart, campEnd = ev.Ts, ev.Ts+ev.Dur
			continue
		}
		others = append(others, iv{ev.Ts, ev.Ts + ev.Dur})
	}
	if !haveRoot {
		t.Fatal("timeline has no campaign root span")
	}
	if campEnd <= campStart {
		t.Fatalf("campaign root span has non-positive duration [%g, %g]", campStart, campEnd)
	}
	for _, want := range []string{"unit.lease", "worker.rebuild", "unit.scan"} {
		if !names[want] {
			t.Errorf("timeline has no %q span (have %v)", want, names)
		}
	}

	// Interval-union coverage: the non-root spans, clipped to the
	// campaign window, must explain at least 95% of the wall time — the
	// "no dark time" acceptance bar for the tracing layer.
	sort.Slice(others, func(i, j int) bool { return others[i].lo < others[j].lo })
	var covered, cursor float64
	cursor = campStart
	for _, s := range others {
		lo, hi := s.lo, s.hi
		if lo < cursor {
			lo = cursor
		}
		if hi > campEnd {
			hi = campEnd
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	if frac := covered / (campEnd - campStart); frac < 0.95 {
		t.Errorf("spans cover %.1f%% of the campaign wall time, want >= 95%%", 100*frac)
	}

	// The JSONL stream must carry the same spans, one object per line,
	// each stamped with the trace ID.
	resp2, err := http.Get(srv.URL + "/v1/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var line struct {
			Trace string `json:"trace"`
			Scope string `json:"scope"`
			Name  string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("jsonl line %d: %v", lines+1, err)
		}
		if line.Trace != coord.TraceID().String() || line.Name == "" || line.Scope == "" {
			t.Fatalf("jsonl line %d malformed: %+v", lines+1, line)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if wantSpans := len(others) + 1; lines != wantSpans {
		t.Errorf("jsonl stream has %d spans, chrome export %d", lines, wantSpans)
	}
}

// TestWatchdogFlagsStragglerWorker builds a lease-duration baseline with
// a fast protocol-level worker, then lets a second worker sit on a lease
// far past the MAD outlier threshold: the watchdog must flag it in
// /v1/status, emit exactly one deduplicated trace event, raise the
// fleet.stragglers gauge — and none of it may change the report bytes.
func TestWatchdogFlagsStragglerWorker(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "bin_sem2")
	want, err := campaign.FullScan(tgt, golden, fs, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	reg.EnableTrace(256)
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		UnitSize: 4,
		// Long TTL: the slow worker must be flagged as an outlier well
		// before its lease would expire and be reassigned.
		LeaseTTL:        time.Minute,
		MaxGoldenCycles: testMaxGolden,
		Telemetry:       reg,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	id := coord.Identity()

	// Six fast grant→submit cycles seed the watchdog's outlier baseline
	// (it needs at least five completed leases).
	for i := 0; i < 6; i++ {
		u := leaseAs(t, srv.URL, id, "fast")
		if u.Status != UnitGranted {
			t.Fatalf("baseline lease %d: status %d, want granted", i, u.Status)
		}
		submitAs(t, srv.URL, id, "fast", u, want.Outcomes)
	}

	slow := leaseAs(t, srv.URL, id, "slow")
	if slow.Status != UnitGranted {
		t.Fatalf("slow lease: status %d, want granted", slow.Status)
	}
	// The fast leases completed in single-digit milliseconds, so the
	// threshold sits near its 10ms floor; 150ms is unambiguously late.
	time.Sleep(150 * time.Millisecond)

	var st struct {
		Stragglers []Straggler `json:"stragglers"`
	}
	getJSON(t, srv.URL+"/v1/status", &st)
	var verdict *Straggler
	for i := range st.Stragglers {
		if st.Stragglers[i].WorkerID == "slow" && st.Stragglers[i].Kind == "lease_outlier" {
			verdict = &st.Stragglers[i]
		}
	}
	if verdict == nil {
		t.Fatalf("slow worker not flagged; stragglers = %+v", st.Stragglers)
	}
	if verdict.UnitID != slow.ID {
		t.Errorf("verdict names unit %d, want %d", verdict.UnitID, slow.ID)
	}
	if verdict.AgeMs < verdict.ThresholdMs || verdict.ThresholdMs <= 0 {
		t.Errorf("verdict age %.1fms vs threshold %.1fms: age must exceed a positive threshold", verdict.AgeMs, verdict.ThresholdMs)
	}
	if got := reg.Snapshot().Gauges["fleet.stragglers"]; got != 1 {
		t.Errorf("fleet.stragglers gauge = %d, want 1", got)
	}

	// The verdict is deduplicated: repeated status polls re-report it but
	// record only one trace event.
	getJSON(t, srv.URL+"/v1/status", &st)
	var dbg struct {
		Events []telemetry.Event `json:"events"`
	}
	getJSON(t, srv.URL+"/debug/telemetry", &dbg)
	events := 0
	for _, e := range dbg.Events {
		if e.Name == "watchdog.straggler" {
			events++
		}
	}
	if events != 1 {
		t.Errorf("watchdog.straggler trace events = %d, want exactly 1", events)
	}

	// Late is not wrong: the slow worker's submission merges normally,
	// the remaining units drain, and the result matches a local scan.
	submitAs(t, srv.URL, id, "slow", slow, want.Outcomes)
	for {
		u := leaseAs(t, srv.URL, id, "fast")
		if u.Status != UnitGranted {
			break
		}
		submitAs(t, srv.URL, id, "fast", u, want.Outcomes)
	}
	res, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	coord.Seal()
	assertPlacementEquivalent(t, tgt, golden, fs, res)

	// Zero the slice first: the field is omitempty, so a decode into the
	// old struct would keep the stale verdicts around.
	st.Stragglers = nil
	getJSON(t, srv.URL+"/v1/status", &st)
	if len(st.Stragglers) != 0 {
		t.Errorf("stragglers after completion = %+v, want none", st.Stragglers)
	}
	if got := reg.Snapshot().Gauges["fleet.stragglers"]; got != 0 {
		t.Errorf("fleet.stragglers gauge = %d after completion, want 0", got)
	}
}

// TestWindowedWorkerRates pins the /v1/status rate semantics: a worker's
// experiments-per-second is averaged over the last RateWindow, so after
// an idle stretch it decays to zero instead of being diluted over the
// whole session (the since-join bug this replaces).
func TestWindowedWorkerRates(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "hi")
	want, err := campaign.FullScan(tgt, golden, fs, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        8,
		LeaseTTL:        time.Minute,
		RateWindow:      50 * time.Millisecond,
		MaxGoldenCycles: testMaxGolden,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	id := coord.Identity()

	u := leaseAs(t, srv.URL, id, "w")
	if u.Status != UnitGranted {
		t.Fatalf("lease: status %d, want granted", u.Status)
	}
	submitAs(t, srv.URL, id, "w", u, want.Outcomes)

	rateOf := func(p Progress) float64 {
		for _, ws := range p.Workers {
			if ws.ID == "w" {
				return ws.Rate
			}
		}
		t.Fatal("worker w missing from progress")
		return 0
	}
	if r := rateOf(coord.Snapshot()); r <= 0 {
		t.Errorf("rate right after submitting = %g, want > 0", r)
	}
	// Two idle windows later the rate must have decayed to zero. The
	// first snapshot closes whatever window the submission landed in;
	// the second covers a fully idle one.
	time.Sleep(60 * time.Millisecond)
	coord.Snapshot()
	time.Sleep(60 * time.Millisecond)
	if r := rateOf(coord.Snapshot()); r != 0 {
		t.Errorf("rate after two idle windows = %g, want 0", r)
	}
}

// TestCoordinatorMetricsExposition scrapes the coordinator's /metrics
// through the validating Prometheus text-format parser: the registry's
// instruments and the synthetic per-worker series must all be
// grammatically correct, and the endpoint must work with or without a
// registry.
func TestCoordinatorMetricsExposition(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "bin_sem2")
	reg := telemetry.New()
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        16,
		MaxGoldenCycles: testMaxGolden,
		Telemetry:       reg,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, errs := runCluster(t, coord, []WorkerOptions{{ID: "w1"}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)

	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := promtest.Validate(body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text format: %v\n%s", err, body)
	}

	find := func(name, labelKey, labelVal string) *promtest.Sample {
		for i := range doc.Samples {
			s := &doc.Samples[i]
			if s.Name == name && (labelKey == "" || s.Labels[labelKey] == labelVal) {
				return s
			}
		}
		return nil
	}
	if s := find("faultspace_cluster_leases_granted_total", "", ""); s == nil || s.Value <= 0 {
		t.Errorf("faultspace_cluster_leases_granted_total missing or zero: %+v", s)
	}
	if s := find("faultspace_cluster_worker_experiments_total", "worker", "w1"); s == nil || s.Value < float64(len(fs.Classes)) {
		t.Errorf("per-worker experiments series missing or low: %+v (want >= %d)", s, len(fs.Classes))
	}
	if s := find("faultspace_fleet_stragglers", "", ""); s == nil || s.Value != 0 {
		t.Errorf("faultspace_fleet_stragglers = %+v, want present and 0", s)
	}
	if doc.Types["faultspace_cluster_lease_duration_seconds"] != "histogram" {
		t.Error("faultspace_cluster_lease_duration_seconds must be declared a histogram")
	}

	// Without a registry the endpoint still serves (per-worker series
	// only) and still parses.
	coord2, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		MaxGoldenCycles: testMaxGolden,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(coord2.Handler())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := promtest.Validate(body2); err != nil {
		t.Errorf("registry-less /metrics does not parse: %v\n%s", err, body2)
	}
}
