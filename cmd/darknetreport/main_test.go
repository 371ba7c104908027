package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/sensor"
)

func TestRunWorms(t *testing.T) {
	for _, args := range [][]string{
		{"-worm", "codered2", "-own", "192.168.0.100", "-probes", "100000"},
		{"-worm", "slammer", "-variant", "1", "-probes", "100000"},
		{"-worm", "blaster", "-own", "141.212.10.5", "-tick", "140000", "-probes", "100000"},
		{"-worm", "uniform", "-probes", "100000"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunWritesSnapshots(t *testing.T) {
	jsonPath := t.TempDir() + "/snap.json"
	if err := run([]string{
		"-worm", "uniform", "-probes", "50000", "-json", jsonPath,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap sensor.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	slash24s := make(map[string]int)
	for _, b := range sensor.DefaultIMSBlocks() {
		slash24s[b.Label] = b.Prefix.Slash24s()
	}
	if len(snap.Blocks) != len(slash24s) {
		t.Fatalf("snapshot holds %d blocks, want %d", len(snap.Blocks), len(slash24s))
	}
	for _, b := range snap.Blocks {
		if len(b.Attempts) != slash24s[b.Label] {
			t.Errorf("block %s holds %d /24s, want %d", b.Label, len(b.Attempts), slash24s[b.Label])
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-worm", "nope", "-probes", "10"}); err == nil {
		t.Error("unknown worm accepted")
	}
	if err := run([]string{"-own", "not-an-ip"}); err == nil {
		t.Error("bad address accepted")
	}
	if err := run([]string{"-worm", "slammer", "-variant", "7", "-probes", "10"}); err == nil {
		t.Error("bad variant accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}
