package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"omptune/internal/obs"
	"omptune/internal/topology"
)

// monGet fetches one monitor endpoint and returns status code + body.
func monGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func monStatus(t *testing.T, base string) obs.Status {
	t.Helper()
	code, body := monGet(t, base, "/api/status")
	if code != http.StatusOK {
		t.Fatalf("/api/status -> %d", code)
	}
	var st obs.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/api/status not valid JSON: %v\n%s", err, body)
	}
	return st
}

// TestMonitorLiveSweep drives a real micro-sweep with the monitor attached
// and scrapes the HTTP endpoints before, during and after the campaign.
func TestMonitorLiveSweep(t *testing.T) {
	mon := NewMonitor()
	srv := obs.NewServer(mon.Registry(), func() any { return mon.Status() }, nil, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(nil)
	base := "http://" + addr.String()

	if st := monStatus(t, base); st.State != "waiting" {
		t.Fatalf("pre-sweep state %q, want waiting", st.State)
	}

	// Scrape once mid-campaign, from the first progress callback: the plan
	// gauges must already be visible and the state running.
	var during obs.Status
	probed := false
	ds, err := RunSweep(SweepConfig{
		Arches:   []topology.Arch{topology.A64FX},
		Apps:     []string{"Sort"},
		Fraction: map[topology.Arch]float64{topology.A64FX: 0.05},
		Monitor:  mon,
		OnProgress: func(ProgressEvent) {
			if !probed {
				probed = true
				during = monStatus(t, base)
			}
		},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if !probed {
		t.Fatal("OnProgress never fired")
	}
	if during.State != "running" {
		t.Errorf("mid-sweep state %q, want running", during.State)
	}
	if during.Backend != "model" {
		t.Errorf("mid-sweep backend %q, want model", during.Backend)
	}
	if during.SettingsTotal != 3 || during.SamplesTotal <= 0 {
		t.Errorf("mid-sweep plan %d settings / %d samples, want 3 / >0",
			during.SettingsTotal, during.SamplesTotal)
	}

	st := monStatus(t, base)
	if st.State != "done" {
		t.Fatalf("post-sweep state %q, want done", st.State)
	}
	if st.SettingsDone != 3 || st.SettingsDone != st.SettingsTotal {
		t.Errorf("settings %d/%d, want 3/3", st.SettingsDone, st.SettingsTotal)
	}
	if st.SamplesDone != ds.Len() || st.SamplesDone != st.SamplesTotal {
		t.Errorf("samples %d/%d, dataset has %d", st.SamplesDone, st.SamplesTotal, ds.Len())
	}
	if len(st.Cells) != 1 || st.Cells[0].Arch != "a64fx" || st.Cells[0].App != "Sort" {
		t.Fatalf("cells = %+v, want one a64fx/Sort cell", st.Cells)
	}
	if c := st.Cells[0]; c.SettingsDone != 3 || c.SamplesDone != ds.Len() {
		t.Errorf("cell progress %+v", c)
	}
	evalSeen := false
	for _, l := range st.Latencies {
		if l.Name == "eval a64fx" {
			evalSeen = true
			if l.Count != 3 || l.P50Sec <= 0 || l.P99Sec < l.P50Sec {
				t.Errorf("eval latency %+v", l)
			}
		}
	}
	if !evalSeen {
		t.Errorf("no eval latency tile in %+v", st.Latencies)
	}

	if code, body := monGet(t, base, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz -> %d %q", code, body)
	}
	code, metrics := monGet(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics -> %d", code)
	}
	for _, want := range []string{
		`omptune_sweep_settings_done_total{arch="a64fx"} 3`,
		fmt.Sprintf(`omptune_sweep_samples_done_total{arch="a64fx"} %d`, ds.Len()),
		"omptune_sweep_settings_planned 3",
		`omptune_sweep_setting_eval_seconds_count{arch="a64fx"} 3`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMonitorSweepError propagates a failed campaign into the status.
func TestMonitorSweepError(t *testing.T) {
	mon := NewMonitor()
	_, err := RunSweep(SweepConfig{
		Apps:    []string{"no-such-app"},
		Monitor: mon,
	})
	if err == nil {
		t.Fatal("want error for unknown app")
	}
	st := mon.Status()
	if st.State != "error" || st.Error == "" {
		t.Fatalf("status after failed sweep: %+v", st)
	}
}
