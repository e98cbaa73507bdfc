package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"faultspace"
	"faultspace/internal/telemetry"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(p=%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 90); got != 42 {
		t.Errorf("percentile of one sample = %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// the definition the benchmark's spread bounds are judged by; the wanted
// values are what Python prints.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.want[0]) > 1e-9 || math.Abs(q2-c.want[1]) > 1e-9 || math.Abs(q3-c.want[2]) > 1e-9 {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestFlippedReportByteRejected(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	v := &variant{kernel: "clock1"}
	if err := v.build(nil, benchScope); err != nil {
		t.Fatal(err)
	}
	id, report, err := localReport(v.prog, faultspace.SpaceMemory)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.checkScan(id, report); err != nil {
		t.Fatalf("unmodified report rejected: %v", err)
	}
	for _, at := range []int{0, len(report) / 2, len(report) - 1} {
		bad := bytes.Clone(report)
		bad[at] ^= 0x01
		if err := r.checkScan(id, bad); err == nil {
			t.Errorf("report with byte %d flipped accepted", at)
		}
	}
}

// TestCorruptReferenceFailsRun runs one compare-scan pass against a
// reference with one digest altered: the run must count the failure and
// the command must exit non-zero.
func TestCorruptReferenceFailsRun(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	bad := &refs{Scans: make(map[string]string), Samples: r.Samples}
	for k, v := range r.Scans {
		bad.Scans[k] = v
	}
	v := &variant{kernel: "sort1", hardened: true}
	if err := v.build(nil, benchScope); err != nil {
		t.Fatal(err)
	}
	id, err := faultspace.CampaignIdentity(v.prog, faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad.Scans[fmt.Sprintf("%x", id)] = strings.Repeat("0", 64)
	cfg := &config{workload: "compare-scan", seed: 1, seconds: 0.001, work: t.TempDir(), refs: bad}
	out, err := compareScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 || out.attempted != len(compareVariants()) {
		t.Fatalf("failed %d of %d, want 1 of %d", out.failed, out.attempted, len(compareVariants()))
	}
	var buf bytes.Buffer
	line, err := render(cfg, out, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if line.Correct {
		t.Error("run with a mismatching report reported correct")
	}
}

func TestSeedExpansion(t *testing.T) {
	names := func(cs []serviceCampaign) []string {
		var out []string
		for _, c := range cs {
			out = append(out, c.v.name()+"/"+c.kind.String())
		}
		return out
	}
	if a, b := names(freshOrder(1)), names(freshOrder(1)); !reflect.DeepEqual(a, b) {
		t.Error("service-mix: one seed expanded to two fresh orders")
	}
	if a, b := names(freshOrder(1)), names(freshOrder(2)); reflect.DeepEqual(a, b) {
		t.Error("service-mix: two seeds expanded to the same fresh order")
	}
	if !reflect.DeepEqual(samplePlan(1, 0, 72), samplePlan(1, 0, 72)) {
		t.Error("sample-compare: one seed expanded to two plans")
	}
	if reflect.DeepEqual(samplePlan(1, 0, 72), samplePlan(2, 0, 72)) {
		t.Error("sample-compare: two seeds expanded to the same plan")
	}
	if !reflect.DeepEqual(seeded(1, 0).Perm(12), seeded(1, 0).Perm(12)) {
		t.Error("compare-scan: one seed expanded to two orders")
	}
	if reflect.DeepEqual(seeded(1, 0).Perm(12), seeded(2, 0).Perm(12)) {
		t.Error("compare-scan: two seeds expanded to the same order")
	}
	seen := make(map[string]bool)
	for _, n := range names(freshOrder(3)) {
		if seen[n] {
			t.Fatalf("fresh campaign %s repeats", n)
		}
		seen[n] = true
	}
	for _, n := range names(serviceHitPool()) {
		if seen[n] {
			t.Fatalf("hit-pool campaign %s is also a fresh campaign", n)
		}
	}
}

// TestServiceClientConnections runs a short service mix and checks that
// the two clients together never open more than two connections, and
// that every round trip verifies.
func TestServiceClientConnections(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{workload: "service-mix", seed: 5, seconds: 2, work: t.TempDir(), refs: r}
	run := &svcRun{cfg: cfg, pool: serviceHitPool(), fresh: freshOrder(cfg.seed)}
	fleet := &http.Transport{}
	defer func() {
		http.DefaultClient.Transport = nil
		fleet.CloseIdleConnections()
	}()
	if err := run.setup(nil, fleet); err != nil {
		t.Fatal(err)
	}
	s := run.phase(nil, 2*time.Second)
	if err := run.shutdown(); err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 || len(s.freshMS) == 0 || len(s.hitMS) == 0 {
		t.Fatalf("failed %d of %d; %d fresh, %d hits", s.failed, s.attempted, len(s.freshMS), len(s.hitMS))
	}
	if s.hits != len(s.hitMS) {
		t.Errorf("%d archive answers for %d resubmissions", s.hits, len(s.hitMS))
	}
	if d := run.clients.dials.Load(); d < 1 || d > int64(len(tenants)) {
		t.Errorf("clients opened %d connections, want 1..%d", d, len(tenants))
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	base := time.Unix(1000, 0)
	add := func(scope, name string, startMS, durMS int) {
		tr.add(telemetry.Span{Scope: scope, Name: name, Start: base.Add(time.Duration(startMS) * time.Millisecond), Dur: time.Duration(durMS) * time.Millisecond})
	}
	add(benchScope, "bench.pass", 0, 100)
	add(benchScope, "campaign.scan", 0, 60)
	add(benchScope, "checkpoint.close", 50, 10) // inside the scan
	add(benchScope, "archive.encode", 60, 30)
	add("engine", "scan.run", 0, 100) // other thread: not counted
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.writeChrome(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := selfTimes(f, benchScope)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"bench.pass": 10e3, "campaign.scan": 50e3, "checkpoint.close": 10e3, "archive.encode": 30e3}
	for name, w := range want {
		if math.Abs(st.Self[name]-w) > 1 {
			t.Errorf("self time of %s = %g µs, want %g", name, st.Self[name], w)
		}
	}
	if _, ok := st.Self["scan.run"]; ok {
		t.Error("span of an unselected thread counted")
	}
}
