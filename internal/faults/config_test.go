package faults

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// exampleConfig exercises every fault class at once.
func exampleConfig() Config {
	return Config{
		Seed: 42,
		Outages: []OutageConfig{
			{Block: "41.0.0.0/8", Start: 100, End: 500},
			{Block: "192.52.92.0/22", MeanUp: 300, MeanDown: 60},
		},
		Burst:     &BurstConfig{MeanGood: 120, MeanBad: 30, LossGood: 0.01, LossBad: 0.6},
		Reporting: &ReportingConfig{Delay: 5, DupProb: 0.1},
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := exampleConfig()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("round trip changed the config:\n%+v\n%+v", cfg, back)
	}
	// Canonical: marshal is stable byte for byte.
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("marshal not canonical:\n%s\n%s", data, data2)
	}
}

func TestParseConfigRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		``,
		`{`,
		`{"burst":{"mean_good":1,"mean_bad":1,"loss_bad":7}}`,
		`{"outages":[{"block":"nope","start":0,"end":1}]}`,
		`{"typo_field":1}`,
		`{"reporting":{"delay":-3}}`,
	} {
		if _, err := ParseConfig([]byte(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestParseConfigRejectsMisconfig pins that a plan carrying a misconfig
// section, which no driver models, fails to parse instead of running
// fault-free.
func TestParseConfigRejectsMisconfig(t *testing.T) {
	_, err := ParseConfig([]byte(`{"misconfig":{"fraction":0.5,"mode":"gap"}}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "misconfig"`) {
		t.Fatalf("ParseConfig(misconfig) = %v, want an unknown-field error", err)
	}
}

func TestEmpty(t *testing.T) {
	if !(&Config{Seed: 9}).Empty() {
		t.Error("seed-only config not Empty")
	}
	cfg := exampleConfig()
	if cfg.Empty() {
		t.Error("full config reported Empty")
	}
}

// FuzzConfigJSON is the fault-plan round-trip fuzz target: any bytes that
// parse as a valid Config must re-marshal and re-parse to the identical
// value, and compiling the result must never panic.
func FuzzConfigJSON(f *testing.F) {
	seed, err := json.Marshal(exampleConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed":1,"outages":[{"block":"10.0.0.0/24","mean_up":1,"mean_down":2}]}`))
	f.Add([]byte(`{"burst":{"mean_good":1e9,"mean_bad":0.001,"loss_good":0,"loss_bad":1}}`))
	f.Add([]byte(`{"misconfig":{"fraction":1,"mode":"gap"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return // invalid input is fine; crashing on it is not
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("valid config failed to marshal: %v", err)
		}
		back, err := ParseConfig(out)
		if err != nil {
			t.Fatalf("re-parse of %s failed: %v", out, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", cfg, back)
		}
		if _, err := Compile(cfg, 100); err != nil {
			t.Fatalf("valid config failed to compile: %v", err)
		}
	})
}
