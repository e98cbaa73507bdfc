package service

import (
	"errors"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faultspace/internal/archive"
	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
)

const testMaxGolden = 1 << 22

// testTarget prepares a small benchmark campaign target.
func testTarget(t testing.TB, name string) campaign.Target {
	t.Helper()
	spec, err := progs.Resolve(name, progs.Sizes{
		BinSemRounds: 1, SyncRounds: 1, SyncBufBytes: 16,
		ClockTicks: 2, ClockPeriod: 32, MboxMessages: 2,
		PreemptWork: 8, PreemptPeriod: 24, SortElements: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	return campaign.Target{
		Name:  prog.Name,
		Code:  prog.Code,
		Image: prog.Image,
		Mach: machine.Config{
			RAMSize:     prog.RAMSize,
			TimerPeriod: prog.TimerPeriod,
			TimerVector: prog.TimerVector,
		},
	}
}

// testSpec builds a submission spec. Distinct timeout factors yield
// distinct campaign identities for the same program, which several tests
// use to mint cheap unique campaigns.
func testSpec(t testing.TB, name string, factor float64) cluster.Spec {
	t.Helper()
	tgt := testTarget(t, name)
	cfg := campaign.Config{TimeoutFactor: factor}
	_, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cluster.NewSpec(tgt, pruning.SpaceMemory, cfg, testMaxGolden, uint64(len(fs.Classes)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// startService serves a Service over a loopback listener.
func startService(t testing.TB, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 2 * time.Second
	}
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

// startFleet attaches n in-process fleet workers wired like favserve's
// local workers: per-campaign telemetry via the service hook. Returned
// stop drains them (and is registered as cleanup).
func startFleet(t testing.TB, svc *Service, url string, n int) (stop func()) {
	t.Helper()
	intr := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			JoinFleet(url, FleetOptions{
				ID:           fmt.Sprintf("fleet%d", i),
				PollInterval: 10 * time.Millisecond,
				Interrupt:    intr,
				TelemetryFor: func(spec cluster.Spec) *telemetry.Registry {
					return svc.CampaignTelemetry(spec.Identity)
				},
			})
		}(i)
	}
	stop = func() {
		once.Do(func() { close(intr) })
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// submitSpec POSTs a spec to the service and decodes the reply.
func submitSpec(t testing.TB, url string, spec cluster.Spec, tenant string) (CampaignStatus, *http.Response) {
	t.Helper()
	u := url + "/v1/campaigns"
	if tenant != "" {
		u += "?tenant=" + tenant
	}
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(cluster.EncodeSpec(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("submit reply %q: %v", body, err)
		}
	}
	return st, resp
}

func waitDone(t testing.TB, url, id string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st CampaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateCancelled, StateFailed:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchReport(t testing.TB, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/campaigns/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}

// localReport runs the same campaign locally and encodes its archive —
// the reference bytes every service path must reproduce.
func localReport(t testing.TB, name string, factor float64) []byte {
	t.Helper()
	tgt := testTarget(t, name)
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.FullScan(tgt, golden, fs, campaign.Config{TimeoutFactor: factor})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := archive.Encode(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInvariant12ArchiveHit is the differential proof of invariant 12:
// a campaign executed on the fleet yields a report byte-identical to a
// local scan; re-submitting the identical campaign to a fresh service
// over the same archive directory is answered from the archive with the
// same bytes and zero experiments executed.
func TestInvariant12ArchiveHit(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, "hi", 0)
	want := localReport(t, "hi", 0)

	svc, srv := startService(t, Options{Dir: dir})
	startFleet(t, svc, srv.URL, 1)
	st, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st = waitDone(t, srv.URL, st.ID)
	if st.State != StateDone || st.Cached {
		t.Fatalf("first run: state %s cached %v", st.State, st.Cached)
	}
	live := fetchReport(t, srv.URL, st.ID)
	if !bytes.Equal(live, want) {
		t.Fatal("fleet-executed report differs from local scan (invariant 8/12 broken)")
	}
	if got := svc.CampaignTelemetry(spec.Identity).Counter("scan.experiments").Value(); got == 0 {
		t.Error("live run recorded no experiments — telemetry wiring broken")
	}
	svc.Shutdown()

	// A fresh service over the same archive: the duplicate submission
	// must complete instantly, serve identical bytes, and execute
	// nothing.
	svc2, srv2 := startService(t, Options{Dir: dir})
	st2, resp2 := submitSpec(t, srv2.URL, spec, "bob")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d", resp2.StatusCode)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("resubmit: state %s cached %v, want done from archive", st2.State, st2.Cached)
	}
	cached := fetchReport(t, srv2.URL, st2.ID)
	if !bytes.Equal(cached, live) {
		t.Fatal("archived report is not byte-identical to the live scan (invariant 12 broken)")
	}
	if got := svc2.CampaignTelemetry(spec.Identity).Counter("scan.experiments").Value(); got != 0 {
		t.Errorf("archive hit executed %d experiments, want 0", got)
	}
	// Idempotent re-submission to the same live service short-circuits
	// on the in-memory entry too.
	st3, resp3 := submitSpec(t, srv2.URL, spec, "carol")
	if resp3.StatusCode != http.StatusOK || st3.State != StateDone {
		t.Fatalf("idempotent resubmit: HTTP %d state %s", resp3.StatusCode, st3.State)
	}
	svc2.Shutdown()
}

// TestTwoTenantsConcurrent drives two distinct campaigns from different
// tenants through one shared fleet concurrently; both must complete with
// reports byte-identical to their local scans. Run under -race via
// `make race-service`, this is the multi-campaign concurrency proof.
func TestTwoTenantsConcurrent(t *testing.T) {
	specA := testSpec(t, "hi", 0)
	specB := testSpec(t, "bin_sem2", 0)
	if specA.Identity == specB.Identity {
		t.Fatal("test needs distinct campaigns")
	}
	svc, srv := startService(t, Options{MaxActive: 2})
	startFleet(t, svc, srv.URL, 2)

	stA, respA := submitSpec(t, srv.URL, specA, "alice")
	stB, respB := submitSpec(t, srv.URL, specB, "bob")
	if respA.StatusCode != http.StatusAccepted || respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submits: HTTP %d, %d", respA.StatusCode, respB.StatusCode)
	}
	doneA := waitDone(t, srv.URL, stA.ID)
	doneB := waitDone(t, srv.URL, stB.ID)
	if doneA.State != StateDone || doneB.State != StateDone {
		t.Fatalf("states %s/%s, want done/done", doneA.State, doneB.State)
	}
	if got := fetchReport(t, srv.URL, stA.ID); !bytes.Equal(got, localReport(t, "hi", 0)) {
		t.Error("tenant alice's report differs from a local scan")
	}
	if got := fetchReport(t, srv.URL, stB.ID); !bytes.Equal(got, localReport(t, "bin_sem2", 0)) {
		t.Error("tenant bob's report differs from a local scan")
	}
	svc.Shutdown()
}

// TestCounterIsolation (the /v1/status satellite): with several
// campaigns sharing one process, each campaign's scan/memo counters
// must be its own, not a process-global aggregate.
func TestCounterIsolation(t *testing.T) {
	specA := testSpec(t, "hi", 0)
	specB := testSpec(t, "bin_sem2", 0)
	svc, srv := startService(t, Options{MaxActive: 2})
	startFleet(t, svc, srv.URL, 2)
	stA, _ := submitSpec(t, srv.URL, specA, "alice")
	stB, _ := submitSpec(t, srv.URL, specB, "bob")
	waitDone(t, srv.URL, stA.ID)
	waitDone(t, srv.URL, stB.ID)

	expA := svc.CampaignTelemetry(specA.Identity).Counter("scan.experiments").Value()
	expB := svc.CampaignTelemetry(specB.Identity).Counter("scan.experiments").Value()
	if expA != specA.Classes {
		t.Errorf("campaign A counted %d experiments, want its own %d", expA, specA.Classes)
	}
	if expB != specB.Classes {
		t.Errorf("campaign B counted %d experiments, want its own %d", expB, specB.Classes)
	}

	// The same isolation must hold on the wire: /v1/status reports the
	// counters per campaign.
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Campaigns []struct {
			ID        string `json:"id"`
			Telemetry *struct {
				Counters map[string]uint64 `json:"counters"`
			} `json:"telemetry"`
		} `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		hex.EncodeToString(specA.Identity[:]): specA.Classes,
		hex.EncodeToString(specB.Identity[:]): specB.Classes,
	}
	seen := 0
	for _, c := range status.Campaigns {
		if c.Telemetry == nil {
			t.Fatalf("campaign %s has no telemetry in /v1/status", c.ID)
		}
		if w, ok := want[c.ID]; ok {
			seen++
			if got := c.Telemetry.Counters["scan.experiments"]; got != w {
				t.Errorf("/v1/status campaign %.12s: scan.experiments %d, want %d", c.ID, got, w)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("/v1/status listed %d of the 2 campaigns", seen)
	}
	svc.Shutdown()
}

// TestBackpressure: beyond MaxQueued, submissions get 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	// No fleet: campaigns stay queued/running forever.
	_, srv := startService(t, Options{MaxActive: 1, MaxQueued: 1})
	for i, factor := range []float64{2, 3} {
		if _, resp := submitSpec(t, srv.URL, testSpec(t, "hi", factor), "t"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
	}
	// The first campaign moved to running, the second fills the queue;
	// the third must bounce.
	_, resp := submitSpec(t, srv.URL, testSpec(t, "hi", 4), "t")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry a Retry-After hint")
	}
}

// TestCancelAndDrain: a queued campaign cancels cleanly; after Shutdown
// the service answers submissions with 503 and fleet handshakes with a
// shutdown notice.
func TestCancelAndDrain(t *testing.T) {
	svc, srv := startService(t, Options{MaxActive: 1})
	// No fleet: both campaigns are admitted, the second stays queued.
	st1, _ := submitSpec(t, srv.URL, testSpec(t, "hi", 2), "t")
	st2, _ := submitSpec(t, srv.URL, testSpec(t, "hi", 3), "t")

	resp, err := http.Post(srv.URL+"/v1/campaigns/"+st2.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got CampaignStatus
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != StateCancelled {
		t.Fatalf("cancelled queued campaign reports %s", got.State)
	}

	done := make(chan struct{})
	go func() { svc.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not drain")
	}
	if st := waitDone(t, srv.URL, st1.ID); st.State != StateCancelled {
		t.Errorf("running campaign after drain: %s, want cancelled", st.State)
	}

	_, resp2 := submitSpec(t, srv.URL, testSpec(t, "hi", 5), "t")
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("503 must carry a Retry-After hint")
	}
	hello, err := http.Post(srv.URL+"/v1/handshake", "application/octet-stream",
		bytes.NewReader(EncodeFleetHello(FleetHello{WorkerID: "late"})))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hello.Body)
	hello.Body.Close()
	h, err := DecodeServiceHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != FleetShutdown {
		t.Errorf("fleet handshake while draining: status %d, want shutdown", h.Status)
	}
}

// TestServiceMethodRejection: every mutating service endpoint enforces
// POST, every read endpoint GET — 405 plus an Allow header otherwise.
func TestServiceMethodRejection(t *testing.T) {
	_, srv := startService(t, Options{})
	id := strings.Repeat("ab", 32)
	cases := []struct {
		path  string
		allow string
	}{
		{"/v1/handshake", "POST"},
		{"/v1/lease", "POST"},
		{"/v1/submit", "POST"},
		{"/v1/heartbeat", "POST"},
		{"/v1/leave", "POST"},
		{"/v1/campaigns", "GET, POST"},
		{"/v1/status", "GET"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s: HTTP %d, want 405", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("DELETE %s: Allow %q, want %q", tc.path, got, tc.allow)
		}
	}
	// Campaign subpaths 405 too (not 404) once the campaign exists.
	st, _ := submitSpec(t, srv.URL, testSpec(t, "hi", 2), "t")
	for path, allow := range map[string]string{
		"/v1/campaigns/" + st.ID:             "GET",
		"/v1/campaigns/" + st.ID + "/report": "GET",
		"/v1/campaigns/" + st.ID + "/cancel": "POST",
	} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != allow {
			t.Errorf("DELETE %s: HTTP %d Allow %q, want 405 %q",
				path, resp.StatusCode, resp.Header.Get("Allow"), allow)
		}
	}
	_ = id
}

// TestFleetWireRoundtrip pins the fleet handshake codec.
func TestFleetWireRoundtrip(t *testing.T) {
	h, err := DecodeFleetHello(EncodeFleetHello(FleetHello{WorkerID: "w1"}))
	if err != nil || h.WorkerID != "w1" {
		t.Fatalf("fleet hello roundtrip: %+v, %v", h, err)
	}
	for _, want := range []ServiceHello{
		{Status: FleetWait},
		{Status: FleetShutdown},
		{Status: FleetGranted, Spec: []byte("spec-bytes")},
	} {
		got, err := DecodeServiceHello(EncodeServiceHello(want))
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || !bytes.Equal(got.Spec, want.Spec) {
			t.Fatalf("service hello roundtrip: %+v, want %+v", got, want)
		}
	}
	if _, err := DecodeFleetHello([]byte("garbage")); err == nil {
		t.Error("garbage fleet hello must be rejected")
	}
	if _, err := DecodeServiceHello(EncodeFleetHello(FleetHello{})); err == nil {
		t.Error("kind confusion must be rejected")
	}
}

// TestUnknownWorkerIdentity: worker traffic for an unknown campaign is
// answered 409, mirroring the single-coordinator admission check.
func TestUnknownWorkerIdentity(t *testing.T) {
	_, srv := startService(t, Options{})
	var bogus [32]byte
	bogus[0] = 0xee
	resp, err := http.Post(srv.URL+"/v1/lease", "application/octet-stream",
		bytes.NewReader(cluster.EncodeLeaseRequest(cluster.LeaseRequest{Identity: bogus, WorkerID: "w"})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("lease for unknown campaign: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestFleetUnreachableGivesUp: a fleet worker whose service vanished
// for good stops polling after the failure budget instead of spinning
// on a dead address forever.
func TestFleetUnreachableGivesUp(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // nothing listens here any more
	err := JoinFleet(srv.URL, FleetOptions{PollInterval: time.Millisecond})
	if !errors.Is(err, cluster.ErrUnreachable) {
		t.Fatalf("JoinFleet against a dead service: %v, want ErrUnreachable", err)
	}
}

// testSpecSpace is testSpec for an arbitrary fault space and attacker
// objective.
func testSpecSpace(t testing.TB, name string, kind pruning.SpaceKind, objective string) cluster.Spec {
	t.Helper()
	tgt := testTarget(t, name)
	obj, err := campaign.ObjectiveByName(objective)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Objective: obj}
	_, fs, err := tgt.PrepareSpace(kind, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cluster.NewSpec(tgt, kind, cfg, testMaxGolden, uint64(len(fs.Classes)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// localReportSpace is localReport for an arbitrary fault space and
// attacker objective.
func localReportSpace(t testing.TB, name string, kind pruning.SpaceKind, objective string) []byte {
	t.Helper()
	tgt := testTarget(t, name)
	obj, err := campaign.ObjectiveByName(objective)
	if err != nil {
		t.Fatal(err)
	}
	golden, fs, err := tgt.PrepareSpace(kind, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.FullScan(tgt, golden, fs, campaign.Config{Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := archive.Encode(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetRerunStrategy runs a fleet whose worker executes its leased
// units under the rerun reference strategy: the service-produced report
// must stay byte-identical to a local snapshot scan (invariant 8/12
// across strategies), and the campaign's own telemetry must show the
// rerun path actually ran — one pooled machine per executor, with no
// pioneer machine for a golden replay.
func TestFleetRerunStrategy(t *testing.T) {
	spec := testSpec(t, "bin_sem2", 0)
	want := localReport(t, "bin_sem2", 0)

	svc, srv := startService(t, Options{})
	intr := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		JoinFleet(srv.URL, FleetOptions{
			ID:           "rerun-fleet",
			PollInterval: 10 * time.Millisecond,
			Interrupt:    intr,
			Worker:       cluster.WorkerOptions{Workers: 1, Strategy: campaign.StrategyRerun},
			TelemetryFor: func(s cluster.Spec) *telemetry.Registry {
				return svc.CampaignTelemetry(s.Identity)
			},
		})
	}()
	t.Cleanup(func() {
		once.Do(func() { close(intr) })
		wg.Wait()
	})

	st, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st = waitDone(t, srv.URL, st.ID)
	if st.State != StateDone || st.Cached {
		t.Fatalf("state %s cached %v, want a live done run", st.State, st.Cached)
	}
	if got := fetchReport(t, srv.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatal("rerun-fleet report differs from local scan (invariant 8/12 broken)")
	}
	reg := svc.CampaignTelemetry(spec.Identity)
	if got := reg.Counter("pool.alloc").Value(); got != 1 {
		t.Errorf("pool.alloc = %d, want 1 — a single-executor rerun worker allocates no pioneer machine", got)
	}
	svc.Shutdown()
}

// TestInvariant12ArchiveHitAttackSpaces replays the invariant-12 proof
// for the attack-style campaign types: a burst campaign under the
// corrupt objective and a plain instruction-skip campaign, each executed
// on the fleet (objective name riding the wire spec), must match the
// local scan byte-for-byte; the duplicate submission to a fresh service
// over the same archive is answered with zero experiments executed.
func TestInvariant12ArchiveHitAttackSpaces(t *testing.T) {
	cases := []struct {
		name      string
		kind      pruning.SpaceKind
		objective string
	}{
		{"burst2+corrupt", pruning.SpaceBurst2, "corrupt"},
		{"skip", pruning.SpaceSkip, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := testSpecSpace(t, "bin_sem2", tc.kind, tc.objective)
			want := localReportSpace(t, "bin_sem2", tc.kind, tc.objective)

			svc, srv := startService(t, Options{Dir: dir})
			startFleet(t, svc, srv.URL, 2)
			st, resp := submitSpec(t, srv.URL, spec, "alice")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			st = waitDone(t, srv.URL, st.ID)
			if st.State != StateDone || st.Cached {
				t.Fatalf("first run: state %s cached %v", st.State, st.Cached)
			}
			if st.Objective != tc.objective {
				t.Errorf("status objective %q, want %q", st.Objective, tc.objective)
			}
			live := fetchReport(t, srv.URL, st.ID)
			if !bytes.Equal(live, want) {
				t.Fatal("fleet-executed report differs from local scan (invariant 8/12 broken)")
			}
			svc.Shutdown()

			svc2, srv2 := startService(t, Options{Dir: dir})
			st2, resp2 := submitSpec(t, srv2.URL, spec, "bob")
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("resubmit: HTTP %d", resp2.StatusCode)
			}
			if st2.State != StateDone || !st2.Cached {
				t.Fatalf("resubmit: state %s cached %v, want done from archive", st2.State, st2.Cached)
			}
			if !bytes.Equal(fetchReport(t, srv2.URL, st2.ID), live) {
				t.Fatal("archived report is not byte-identical to the live scan (invariant 12 broken)")
			}
			if got := svc2.CampaignTelemetry(spec.Identity).Counter("scan.experiments").Value(); got != 0 {
				t.Errorf("archive hit executed %d experiments, want 0", got)
			}
			svc2.Shutdown()
		})
	}
}
