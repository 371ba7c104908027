package sensor

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/ipv4"
)

// populatedFleet builds a fleet with some recorded traffic.
func populatedFleet(t *testing.T) *Fleet {
	t.Helper()
	fleet := MustNewFleet(DefaultIMSBlocks())
	targets := []string{"98.136.0.5", "98.136.3.7", "41.1.2.3", "192.52.92.9"}
	for i, dst := range targets {
		for j := 0; j <= i; j++ {
			fleet.Observe(ipv4.Addr(1000+j), ipv4.MustParseAddr(dst))
		}
	}
	return fleet
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := populatedFleet(t).Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Error("JSON round trip lost data")
	}
}

func TestSnapshotContents(t *testing.T) {
	snap := populatedFleet(t).Snapshot()
	var d BlockSnapshot
	var slots int
	for _, b := range snap.Blocks {
		if b.Label == "D" {
			d = b
		}
		slots += len(b.Attempts)
	}
	if d.Label != "D" {
		t.Fatal("D block missing from snapshot")
	}
	if d.TotalAttempts != 3 { // 1 probe to .0.5 + 2 to .3.7
		t.Errorf("D attempts = %d, want 3", d.TotalAttempts)
	}
	if d.Attempts[0] != 1 || d.Attempts[3] != 2 {
		t.Errorf("D per-/24 = %v", d.Attempts[:4])
	}
	var want int
	for _, b := range DefaultIMSBlocks() {
		want += b.Prefix.Slash24s()
	}
	if slots != want {
		t.Errorf("per-/24 series hold %d slots, want %d", slots, want)
	}
}
