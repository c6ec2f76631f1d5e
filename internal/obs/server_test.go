package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"omptune/openmp/profile"
)

func startTestServer(t *testing.T, srv *Server) string {
	t.Helper()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return "http://" + addr.String()
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("omptune_srv_total", "served").Add(7)
	st := Status{State: "running", Workers: 2, SamplesDone: 3, SamplesTotal: 10}
	base := startTestServer(t, NewServer(reg, func() any { return st }, nil, nil))

	code, body, _ := get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !containsLine(body, "omptune_srv_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body, hdr = get(t, base+"/api/status")
	if code != http.StatusOK {
		t.Errorf("/api/status status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/api/status content type = %q", ct)
	}
	var got Status
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/api/status not JSON: %v\n%s", err, body)
	}
	if got.State != "running" || got.SamplesDone != 3 || got.SamplesTotal != 10 {
		t.Errorf("/api/status = %+v, want %+v", got, st)
	}

	code, body, hdr = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "<html") {
		t.Errorf("dashboard: status %d, body prefix %.60q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("dashboard content type = %q", ct)
	}
	// Self-contained: no external scripts, styles or fonts.
	for _, needle := range []string{"src=\"http", "href=\"http", "url(http"} {
		if strings.Contains(body, needle) {
			t.Errorf("dashboard references an external asset (%s)", needle)
		}
	}

	code, _, _ = get(t, base+"/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", code)
	}
}

func TestServerShutdown(t *testing.T) {
	srv := NewServer(NewRegistry(), func() any { return Status{State: "done"} }, nil, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr.String() + "/healthz"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

func TestServerRegionsEndpoint(t *testing.T) {
	base := startTestServer(t, NewServer(NewRegistry(), nil, nil, nil))

	// Without a producer the endpoint serves JSON null, not an error.
	code, body, hdr := get(t, base+"/api/regions")
	if code != http.StatusOK || strings.TrimSpace(body) != "null" {
		t.Errorf("/api/regions without producer = %d %q, want 200 null", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/api/regions content type = %q", ct)
	}
}

// TestServerRegionsPayload: /api/regions serves the profiler's rows as
// they are, the JSON omprun -profile-json writes.
func TestServerRegionsPayload(t *testing.T) {
	rows := []profile.RegionProfile{{
		Name: "main.kernel", Level: 0,
		Sums:    profile.Sums{Count: 12, Threads: 4, WallNS: 250e6, ThreadNS: 1e9},
		Derived: profile.Derived{ParallelEfficiency: 0.85, LoadBalance: 0.9, BarrierWaitShare: 0.05, SchedOverheadShare: 0.01},
	}}
	base := startTestServer(t, NewServer(NewRegistry(), nil, func() any { return rows }, nil))

	code, body, _ := get(t, base+"/api/regions")
	if code != http.StatusOK {
		t.Fatalf("/api/regions status = %d", code)
	}
	var back []profile.RegionProfile
	if err := json.Unmarshal([]byte(body), &back); err != nil {
		t.Fatalf("decode /api/regions: %v", err)
	}
	if len(back) != 1 || back[0] != rows[0] {
		t.Errorf("round-tripped regions = %+v, want %+v", back, rows)
	}
	if !strings.Contains(body, `"wall_ns":250000000`) {
		t.Errorf("/api/regions body lacks wall_ns: %s", body)
	}
}

func TestServerVariabilityEndpoint(t *testing.T) {
	base := startTestServer(t, NewServer(NewRegistry(), nil, nil, nil))

	// Without a producer the endpoint serves JSON null, not an error.
	code, body, hdr := get(t, base+"/api/variability")
	if code != http.StatusOK || strings.TrimSpace(body) != "null" {
		t.Errorf("/api/variability without producer = %d %q, want 200 null", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/api/variability content type = %q", ct)
	}
}

func TestServerVariabilityPayload(t *testing.T) {
	cells := []VariabilityCell{{
		Arch: "a64fx", App: "CG", Samples: 24,
		RepsRun: 61, RepsFixed: 96, CoVP50: 0.004, CoVP90: 0.02,
	}}
	base := startTestServer(t, NewServer(NewRegistry(), nil, nil, func() any { return cells }))

	code, body, _ := get(t, base+"/api/variability")
	if code != http.StatusOK {
		t.Fatalf("/api/variability status = %d", code)
	}
	var back []VariabilityCell
	if err := json.Unmarshal([]byte(body), &back); err != nil {
		t.Fatalf("decode /api/variability: %v", err)
	}
	if len(back) != 1 || back[0] != cells[0] {
		t.Errorf("round-tripped cells = %+v, want %+v", back, cells)
	}
}
