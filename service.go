package faultspace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"faultspace/internal/cluster"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
)

// CampaignServiceOptions parameterizes ServeCampaigns.
type CampaignServiceOptions struct {
	// ArchiveDir is the directory of the content-addressed result
	// archive. Empty keeps results in memory only.
	ArchiveDir string
	// MaxArchiveBytes caps the archive size; least-recently-used entries
	// are evicted beyond it (0 = unbounded).
	MaxArchiveBytes int64
	// MaxActive bounds concurrently running campaigns (default 2);
	// MaxQueued bounds waiting ones across all tenants (default 16,
	// beyond it submissions get 429 + Retry-After).
	MaxActive int
	MaxQueued int
	// UnitSize and LeaseTTL parameterize each campaign's coordinator.
	UnitSize int
	LeaseTTL time.Duration
	// StarveAfter is the starved-tenant watchdog threshold: a campaign
	// still queued this long flags its tenant in /v1/status, the trace
	// stream and the fleet.starved_tenants gauge (default 2m).
	StarveAfter time.Duration
	// LocalWorkers starts this many in-process fleet workers against the
	// service's own address, so a single favserve process can execute
	// campaigns without external workers joining.
	LocalWorkers int
	// WorkerOptions configures the local fleet workers (strategy,
	// parallelism, predecode, memo). WorkerID and Telemetry are managed
	// by the service; Interrupt is wired to the service's Interrupt.
	WorkerOptions JoinOptions
	// Interrupt, when closed, drains the service gracefully: new
	// submissions are rejected with 503, running campaigns are
	// interrupted and their leases drained, and the archive is flushed.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, receives service-level metrics and
	// campaign lifecycle trace events, and enables /debug/telemetry.
	Telemetry *Telemetry
	// OnListen, when non-nil, receives the bound listen address once the
	// service is serving — useful with ":0" addresses.
	OnListen func(addr string)
	// Logf, when non-nil, receives service life-cycle log lines.
	Logf func(format string, args ...any)
}

// CampaignInfo is one campaign's state as reported by the service's
// lifecycle endpoints.
type CampaignInfo struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Tenant string `json:"tenant"`
	// State is one of "queued", "running", "done", "cancelled", "failed".
	State string `json:"state"`
	// Cached reports that the campaign completed without executing a
	// single experiment: its report was served from the result archive.
	Cached bool   `json:"cached"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Error  string `json:"error"`
}

// Terminal reports whether the campaign has reached a final state.
func (c CampaignInfo) Terminal() bool {
	switch c.State {
	case service.StateDone, service.StateCancelled, service.StateFailed:
		return true
	}
	return false
}

// ServeCampaigns runs a campaign service on addr until Interrupt is
// closed: a long-lived, multi-tenant coordinator that accepts campaign
// submissions (SubmitCampaign or favscan -submit), runs them against a
// shared worker fleet (JoinServiceFleet, favscan -fleet, or in-process
// LocalWorkers) with per-tenant fair scheduling, and archives every
// report content-addressed by the campaign identity hash. A duplicate
// submission — same program image, fault-space kind and timeout budget —
// is answered from the archive byte-identically without executing a
// single experiment (invariant 12).
func ServeCampaigns(addr string, opts CampaignServiceOptions) error {
	svc, err := service.New(service.Options{
		Dir:             opts.ArchiveDir,
		MaxArchiveBytes: opts.MaxArchiveBytes,
		MaxActive:       opts.MaxActive,
		MaxQueued:       opts.MaxQueued,
		UnitSize:        opts.UnitSize,
		LeaseTTL:        opts.LeaseTTL,
		StarveAfter:     opts.StarveAfter,
		Telemetry:       opts.Telemetry,
		Logf:            opts.Logf,
	})
	if err != nil {
		return fmt.Errorf("faultspace: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("faultspace: %w", err)
	}
	bound := ln.Addr().String()
	if opts.OnListen != nil {
		opts.OnListen(bound)
	}
	srv := cluster.NewServer(svc.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var fleet sync.WaitGroup
	for i := 0; i < opts.LocalWorkers; i++ {
		fleet.Add(1)
		go func(n int) {
			defer fleet.Done()
			w := opts.WorkerOptions
			err := service.JoinFleet("http://"+bound, service.FleetOptions{
				ID: fmt.Sprintf("local%d", n),
				Worker: cluster.WorkerOptions{
					Workers:   w.Workers,
					Strategy:  w.Strategy,
					Predecode: w.Predecode,
					Memo:      w.Memo,
				},
				Interrupt: opts.Interrupt,
				// Point each assigned campaign's engine counters at that
				// campaign's own registry, keeping them isolated.
				TelemetryFor: func(spec cluster.Spec) *telemetry.Registry {
					return svc.CampaignTelemetry(spec.Identity)
				},
				Logf: opts.Logf,
			})
			if err != nil && !errors.Is(err, ErrInterrupted) && opts.Logf != nil {
				opts.Logf("faultspace: local worker %d: %v", n, err)
			}
		}(i)
	}

	if opts.Interrupt != nil {
		<-opts.Interrupt
	} else {
		// No interrupt channel: serve until the process dies.
		select {}
	}
	// Drain: cancel queued work, interrupt running campaigns, let their
	// coordinators answer the fleet with shutdown, flush the archive.
	svc.Shutdown()
	fleet.Wait()
	srv.Close()
	<-serveErr
	return nil
}

// SubmitCampaign submits a campaign to a service started with
// ServeCampaigns (or favserve). The campaign is prepared locally — the
// golden run and pruned fault space pin down the identity hash — and
// shipped as a self-contained spec; the service re-verifies the identity
// before running it. tenant attributes the submission for fair
// scheduling ("" = "default"). The returned info reports the admission
// state: an archived identity comes back "done" (Cached) immediately.
func SubmitCampaign(addr string, p *Program, opts ScanOptions, tenant string) (CampaignInfo, error) {
	var info CampaignInfo
	t := Target(p)
	kind, err := opts.space()
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	_, fs, err := t.PrepareSpace(kind, opts.maxGolden())
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	cfg, err := opts.campaignConfig()
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	spec, err := cluster.NewSpec(t, fs.Kind, cfg, opts.maxGolden(), uint64(len(fs.Classes)))
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	u := normalizeURL(addr) + "/v1/campaigns"
	if tenant != "" {
		u += "?tenant=" + url.QueryEscape(tenant)
	}
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(cluster.EncodeSpec(spec)))
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return info, fmt.Errorf("faultspace: submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return info, fmt.Errorf("faultspace: submit: %w", err)
	}
	return info, nil
}

// CampaignState fetches one campaign's current state from a service.
func CampaignState(addr, id string) (CampaignInfo, error) {
	var info CampaignInfo
	resp, err := http.Get(normalizeURL(addr) + "/v1/campaigns/" + url.PathEscape(id))
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("faultspace: status: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return info, fmt.Errorf("faultspace: status: %w", err)
	}
	return info, nil
}

// WaitCampaign polls a campaign until it reaches a terminal state or
// interrupt is closed.
func WaitCampaign(addr, id string, poll time.Duration, interrupt <-chan struct{}) (CampaignInfo, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		info, err := CampaignState(addr, id)
		if err != nil {
			return info, err
		}
		if info.Terminal() {
			return info, nil
		}
		select {
		case <-interrupt:
			return info, fmt.Errorf("faultspace: %w", ErrInterrupted)
		case <-time.After(poll):
		}
	}
}

// CampaignReport fetches a completed campaign's scan report from a
// service and reconstructs it for analysis. The bytes served are exactly
// what SaveScan of a live scan would have produced — whether the service
// executed the campaign or answered from its archive (invariant 12).
func CampaignReport(addr, id string) (*ScanResult, error) {
	resp, err := http.Get(normalizeURL(addr) + "/v1/campaigns/" + url.PathEscape(id) + "/report")
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("faultspace: report: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return LoadScan(io.LimitReader(resp.Body, maxReportBytes))
}

// maxReportBytes bounds a fetched report (matching the service's own
// request bound).
const maxReportBytes = 16 << 20

// FleetOptions parameterizes JoinServiceFleet. The embedded JoinOptions
// keep their JoinScan meaning per assigned campaign.
type FleetOptions struct {
	JoinOptions
	// PollInterval is the wait between handshakes while no campaign is
	// running (default 200ms).
	PollInterval time.Duration
}

// JoinServiceFleet attaches this process to a campaign service as a
// long-lived fleet worker: the service assigns it a campaign, it runs
// that campaign's work units exactly like JoinScan, and when the
// campaign completes it asks for the next one. It returns nil when the
// service announces shutdown and ErrInterrupted when
// JoinOptions.Interrupt fires.
func JoinServiceFleet(addr string, opts FleetOptions) error {
	wopts := cluster.WorkerOptions{
		Workers:   opts.Workers,
		Strategy:  opts.Strategy,
		Predecode: opts.Predecode,
		Memo:      opts.Memo,
		Telemetry: opts.Telemetry,
	}
	err := service.JoinFleet(normalizeURL(addr), service.FleetOptions{
		ID:           opts.WorkerID,
		Worker:       wopts,
		PollInterval: opts.PollInterval,
		Interrupt:    opts.Interrupt,
		Logf:         opts.Logf,
	})
	if err != nil {
		return fmt.Errorf("faultspace: %w", err)
	}
	return nil
}
