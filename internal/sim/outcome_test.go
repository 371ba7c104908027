package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestOutcomeCountsStringFormat pins OutcomeCounts.String byte for byte
// against a fmt rendering of the same "name=count" pairs: the string
// feeds trace details, hotspotd's outcomes field and xcheck's serialized
// runs, so any drift breaks their goldens.
func TestOutcomeCountsStringFormat(t *testing.T) {
	ref := func(c OutcomeCounts) string {
		var parts []string
		for i, v := range c {
			if v != 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", ProbeOutcome(i), v))
			}
		}
		if len(parts) == 0 {
			return "none"
		}
		return strings.Join(parts, " ")
	}
	var full OutcomeCounts
	for i := range full {
		full[i] = math.MaxUint64
	}
	cases := []OutcomeCounts{
		{},
		full,
		{OutcomeDelivered: 120, OutcomeFiltered: 30, OutcomeInfection: 2},
		{OutcomeSensorDown: 1},
		{OutcomeDelivered: 1, OutcomeSensorDown: 10_000_000_000},
	}
	for _, c := range cases {
		if got, want := c.String(), ref(c); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if got := (OutcomeCounts{OutcomeDelivered: 120, OutcomeFiltered: 30, OutcomeInfection: 2}).String(); got != "delivered=120 filtered=30 infection=2" {
		t.Errorf("String() = %q", got)
	}
}
