package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWorkloadsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks that the last output line is a correct result
// naming every declared metric with its unit, and that an untraced run's
// info line carries every ungated end-to-end metric with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			wl, trace := wl, trace
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				if testing.Short() && wl.name == "sim-replay" {
					t.Skip("a sim-replay run replays the whole catalog twice")
				}
				var out bytes.Buffer
				args := []string{"--workload", wl.name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--trace-out", t.TempDir()}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok {
						t.Errorf("metric %s missing", m.name)
						continue
					}
					if got.Unit != m.unit {
						t.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
					}
					if trace == "0" && got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.name)
					}
				}
				if trace == "1" {
					return
				}
				var info struct {
					Ungated map[string]metricValue `json:"ungated_metrics"`
				}
				if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "info ") {
					t.Fatalf("no info line before the result")
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "info ")), &info); err != nil {
					t.Fatalf("info line: %v", err)
				}
				for _, m := range ungated {
					if got, ok := info.Ungated[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("info line: ungated metric %s = %+v, want unit %q", m.name, got, m.unit)
					}
				}
			})
		}
	}
}

// TestUnknownWorkloadFails checks that a bad invocation prints no result.
func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out); code == 0 || out.Len() != 0 {
		t.Fatalf("exit code %d, output %q", code, out.String())
	}
}

func TestSelfMS(t *testing.T) {
	parent := span{Start: 0, End: 100e6}
	children := []span{
		{Start: 10e6, End: 30e6},
		{Start: 20e6, End: 40e6},   // overlaps the first
		{Start: 90e6, End: 120e6},  // runs past the parent
		{Start: 200e6, End: 300e6}, // outside the parent
	}
	if got := selfMS(parent, children); got != 60 {
		t.Fatalf("selfMS = %v ms, want 60", got)
	}
}
