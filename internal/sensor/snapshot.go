package sensor

// Snapshot is a serializable dump of a fleet's observations: what a darknet
// deployment would persist and exchange (the IMS reports that fed the
// paper's figures). It round-trips through encoding/json.
type Snapshot struct {
	Blocks []BlockSnapshot `json:"blocks"`
}

// BlockSnapshot is one monitored block's observations.
type BlockSnapshot struct {
	Label  string `json:"label"`
	Prefix string `json:"prefix"`
	// TotalAttempts and UniqueSources summarize the block.
	TotalAttempts uint64 `json:"totalAttempts"`
	UniqueSources uint32 `json:"uniqueSources"`
	// Attempts and Uniq are per-/24 series in address order.
	Attempts []uint64 `json:"attempts"`
	Uniq     []uint32 `json:"uniq"`
}

// Snapshot captures the fleet's current observations.
func (f *Fleet) Snapshot() Snapshot {
	var snap Snapshot
	for _, s := range f.sensors {
		bs := BlockSnapshot{
			Label:         s.block.Label,
			Prefix:        s.block.Prefix.String(),
			TotalAttempts: s.TotalAttempts(),
			UniqueSources: uint32(s.UniqueSources()),
		}
		for _, st := range s.PerSlash24() {
			bs.Attempts = append(bs.Attempts, st.Attempts)
			bs.Uniq = append(bs.Uniq, st.UniqueSources)
		}
		snap.Blocks = append(snap.Blocks, bs)
	}
	return snap
}
