package service

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"faultspace/internal/cluster"
	"faultspace/internal/telemetry"
)

// FleetOptions parameterizes JoinFleet.
type FleetOptions struct {
	// Worker carries the worker's identity (ID, default "f<pid>"), its
	// per-campaign execution options (strategy, parallelism, predecode),
	// Interrupt, which stops the fleet worker after the current campaign
	// protocol step, and Logf.
	Worker cluster.WorkerOptions
	// TelemetryFor, when non-nil, selects the telemetry registry for
	// each assigned campaign — the hook the service uses to point its
	// in-process workers at the campaign's own registry, keeping
	// scan/memo/predecode counters isolated per campaign. When nil, the
	// Worker.Telemetry registry (possibly nil) is used for every
	// campaign.
	TelemetryFor func(spec cluster.Spec) *telemetry.Registry
}

// JoinFleet attaches a worker to a campaign service for the long haul:
// it handshakes, runs whatever campaign the service assigns via
// cluster.JoinCampaign, and re-handshakes for the next one when that
// campaign completes or shuts down. The service holds a handshake until
// it can assign a campaign, so an idle worker asks again at once. It
// returns nil when the service announces shutdown, cluster.ErrUnreachable
// when a handshake exhausts the worker's bounded retry, and
// campaign.ErrInterrupted when Worker.Interrupt fires.
func JoinFleet(baseURL string, opts FleetOptions) error {
	base := strings.TrimSuffix(baseURL, "/")
	wopts := opts.Worker
	if wopts.ID == "" {
		wopts.ID = fmt.Sprintf("f%d", os.Getpid())
	}
	hello := cluster.EncodeFleetHello(cluster.FleetHello{WorkerID: wopts.ID})
	for {
		resp, err := cluster.Handshake(base, hello, wopts)
		if err != nil {
			return err
		}
		h, err := cluster.DecodeServiceHello(resp)
		if err != nil {
			return fmt.Errorf("service: handshake: %w", err)
		}
		switch h.Status {
		case cluster.FleetShutdown:
			if wopts.Logf != nil {
				wopts.Logf("fleet %s: service shut down", wopts.ID)
			}
			return nil
		case cluster.FleetWait:
			continue
		}
		spec, err := cluster.DecodeSpec(h.Spec)
		if err != nil {
			return fmt.Errorf("service: handshake spec: %w", err)
		}
		if opts.TelemetryFor != nil {
			wopts.Telemetry = opts.TelemetryFor(spec)
		}
		// A finished or cancelled campaign sends the worker back for the
		// next one; anything else ends the fleet worker.
		if err := cluster.JoinCampaign(base, spec, wopts); err != nil && !errors.Is(err, cluster.ErrShutdown) {
			return err
		}
	}
}
