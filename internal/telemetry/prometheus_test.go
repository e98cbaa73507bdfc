package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"faultspace/internal/telemetry/promtest"
)

// TestWritePrometheusSetsValidates renders a multi-set snapshot through
// the grammar-validating parser: mangled names, per-set labels with
// characters needing escaping, counter/gauge/histogram typing and the
// cumulative-bucket contract must all hold.
func TestWritePrometheusSetsValidates(t *testing.T) {
	r := New()
	r.Counter("scan.experiments").Add(7)
	r.Gauge("fleet.stragglers").Set(2)
	h := r.Histogram("cluster.lease_duration")
	h.Observe(3 * time.Microsecond)
	h.Observe(90 * time.Millisecond)
	h.Observe(1000 * time.Hour) // lands in the unbounded overflow bucket

	r2 := New()
	r2.Counter("scan.experiments").Add(9)

	var buf bytes.Buffer
	err := WritePrometheusSets(&buf, []MetricSet{
		{Labels: map[string]string{"campaign": "abc", "tenant": `ali"ce\n`}, Snap: r.Snapshot()},
		{Labels: map[string]string{"campaign": "def"}, Snap: r2.Snapshot()},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := promtest.Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("rendered exposition does not validate: %v\n%s", err, buf.String())
	}
	if doc.Types["faultspace_scan_experiments_total"] != "counter" ||
		doc.Types["faultspace_fleet_stragglers"] != "gauge" ||
		doc.Types["faultspace_cluster_lease_duration_seconds"] != "histogram" {
		t.Errorf("TYPE declarations wrong: %v", doc.Types)
	}
	// One series per set, distinguished by labels; the escaped tenant
	// value survives the round trip.
	var sum float64
	var sawTenant bool
	for _, s := range doc.Samples {
		if s.Name == "faultspace_scan_experiments_total" {
			sum += s.Value
			if s.Labels["tenant"] == `ali"ce\n` {
				sawTenant = true
			}
		}
	}
	if sum != 16 {
		t.Errorf("experiments series sum to %g, want 16 across both sets", sum)
	}
	if !sawTenant {
		t.Error("escaped tenant label value did not survive parse")
	}
	// The unbounded overflow observation must be folded into +Inf, which
	// the validator pins to _count — assert it carried all 3 observations.
	for _, s := range doc.Samples {
		if s.Name == "faultspace_cluster_lease_duration_seconds_bucket" && s.Labels["le"] == "+Inf" {
			if s.Value != 3 {
				t.Errorf("+Inf bucket = %g, want 3 (overflow folded in)", s.Value)
			}
		}
	}

	// A single empty snapshot renders an empty-but-valid document.
	buf.Reset()
	if err := WritePrometheus(&buf, Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := promtest.Validate(buf.Bytes()); err != nil {
		t.Errorf("empty snapshot exposition invalid: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "" {
		t.Errorf("empty snapshot rendered %q, want nothing", buf.String())
	}
}

// TestPromNameMangling pins the registry-name → metric-name mapping the
// dashboards depend on.
func TestPromNameMangling(t *testing.T) {
	cases := map[string]string{
		"scan.experiments":     "faultspace_scan_experiments",
		"memo.hits":            "faultspace_memo_hits",
		"pool.alloc":           "faultspace_pool_alloc",
		"weird-name+x":         "faultspace_weird_name_x",
		"cluster.worker.ready": "faultspace_cluster_worker_ready",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promLabelName("9lives"); got != "_lives" {
		t.Errorf("label name starting with a digit: %q, want _lives", got)
	}
}
