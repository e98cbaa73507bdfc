package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"faultspace"
)

// refs are the reference digests every output is checked against, byte
// for byte. Scan reports are keyed by campaign identity, so a check never
// depends on the workload seed or on how the campaign was run (local
// scan, checkpoint, service, archive hit); sampling results are keyed by
// variant, space, N and sampling seed, which pin them down exactly.
type refs struct {
	// Scans maps a campaign identity (hex) to the SHA-256 of its SaveScan
	// report.
	Scans map[string]string `json:"scans"`
	// Samples maps "variant/space/N/seed" to the SHA-256 of the JSON
	// encoding of the SampleResult.
	Samples map[string]string `json:"samples"`
}

//go:embed refs.json
var refsJSON []byte

func loadRefs() (*refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	if len(r.Scans) == 0 || len(r.Samples) == 0 {
		return nil, fmt.Errorf("refs.json: no reference digests; run with --record")
	}
	return &r, nil
}

// checkScan compares a report's bytes with the reference for its
// campaign identity.
func (r *refs) checkScan(id string, report []byte) error {
	want, ok := r.Scans[id]
	if !ok {
		return fmt.Errorf("no reference report for campaign %s", id)
	}
	if got := digest(report); got != want {
		return fmt.Errorf("campaign %s: report digest %s, reference %s", id, got[:16], want[:16])
	}
	return nil
}

func (r *refs) checkSample(key string, sr any) error {
	b, err := json.Marshal(sr)
	if err != nil {
		return err
	}
	want, ok := r.Samples[key]
	if !ok {
		return fmt.Errorf("no reference sample for %s", key)
	}
	if got := digest(b); got != want {
		return fmt.Errorf("sample %s: digest %s, reference %s", key, got[:16], want[:16])
	}
	return nil
}

// localReport scans a program locally with default options and returns
// its identity (hex) and SaveScan bytes.
func localReport(p *faultspace.Program, kind faultspace.SpaceKind) (string, []byte, error) {
	opts := faultspace.ScanOptions{Predecode: true, Space: kind}
	id, err := faultspace.CampaignIdentity(p, opts)
	if err != nil {
		return "", nil, err
	}
	res, err := faultspace.Scan(p, opts)
	if err != nil {
		return "", nil, err
	}
	var buf bytes.Buffer
	if err := faultspace.SaveScan(&buf, res); err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%x", id), buf.Bytes(), nil
}

// recordRefs recomputes every reference from local runs: the twelve
// compare-scan campaigns, every service-mix campaign a seed can choose,
// and every sampling campaign over the sampling-seed pool.
func recordRefs(path string, log io.Writer) error {
	r := refs{Scans: make(map[string]string), Samples: make(map[string]string)}
	t0 := time.Now()
	vs := compareVariants()
	if err := buildAll(nil, vs); err != nil {
		return err
	}
	add := func(v *variant, kind faultspace.SpaceKind) error {
		if v.prog == nil {
			if err := v.build(nil, benchScope); err != nil {
				return err
			}
		}
		s := time.Now()
		id, rep, err := localReport(v.prog, kind)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", v.name(), kind, err)
		}
		r.Scans[id] = digest(rep)
		fmt.Fprintf(log, "scan %-28s %-9s %8.1f ms %7d bytes\n", v.name(), kind, float64(time.Since(s).Microseconds())/1e3, len(rep))
		return nil
	}
	for _, v := range vs {
		if err := add(v, faultspace.SpaceMemory); err != nil {
			return err
		}
	}
	for _, c := range serviceCandidates() {
		if err := add(c.v, c.kind); err != nil {
			return err
		}
	}
	for _, c := range serviceHitPool() {
		if err := add(c.v, c.kind); err != nil {
			return err
		}
	}
	for _, v := range vs {
		for _, kind := range spaces {
			for _, s := range samplingSeeds {
				sr, err := faultspace.Sample(v.prog, faultspace.SampleOptions{
					ScanOptions: faultspace.ScanOptions{Predecode: true, Space: kind}, N: sampleN, Seed: s,
				})
				if err != nil {
					return fmt.Errorf("sample %s/%s/%d: %w", v.name(), kind, s, err)
				}
				b, err := json.Marshal(sr)
				if err != nil {
					return err
				}
				r.Samples[sampleKey(v, kind, s)] = digest(b)
			}
		}
	}
	fmt.Fprintf(log, "recorded %d scans and %d samples in %s\n", len(r.Scans), len(r.Samples), time.Since(t0).Round(time.Millisecond))
	out, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
