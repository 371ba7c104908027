package sim

import (
	"fmt"

	"repro/internal/topo"
)

// TopologyConflictError reports a config field that has no defined
// semantics under the run's topology. The drivers refuse such configs
// instead of silently ignoring the field: a caller who set NAT-site
// populations or address-block sensors on a graph world is holding a
// model mismatch, not a default.
type TopologyConflictError struct {
	// Topology is the selected world's name.
	Topology string
	// Field is the conflicting config field.
	Field string
	// Reason says why the combination is undefined.
	Reason string
}

func (e *TopologyConflictError) Error() string {
	return fmt.Sprintf("sim: %s has no defined semantics on topology %q: %s", e.Field, e.Topology, e.Reason)
}

// topoConflict is one possible field/topology conflict to check.
type topoConflict struct {
	bad    bool
	field  string
	reason string
}

func firstConflict(name string, checks []topoConflict) error {
	for _, c := range checks {
		if c.bad {
			return &TopologyConflictError{Topology: name, Field: c.field, Reason: c.reason}
		}
	}
	return nil
}

// validateGraph checks an exact config against a graph world. The
// address-space machinery — populations with NAT sites, target-generator
// factories, netenv filtering, darknet sensor sets, fault plans over
// IPv4 blocks — is IPv4 semantics and is rejected with a typed error.
func (c *ExactConfig) validateGraph(g topo.Graph) error {
	err := firstConflict(g.Name(), []topoConflict{
		{c.Pop != nil, "Pop", "graph worlds carry their own node set; populations (and their NAT sites) are IPv4 address structure"},
		{c.Factory != nil, "Factory", "graph worms traverse neighbor lists, not address-space target generators"},
		{c.Env != nil, "Env", "netenv filters IPv4 address space, which graph nodes do not occupy"},
		{c.SensorSet != nil, "SensorSet", "graph sensors are nodes declared by the world, not darknet address blocks"},
		{c.OnProbe != nil, "OnProbe", "graph probes name node ids, not IPv4 source/destination addresses"},
		{c.Faults != nil, "Faults", "fault plans schedule outages over IPv4 blocks"},
	})
	if err != nil {
		return err
	}
	if err := c.params().check(true); err != nil {
		return err
	}
	return checkGraphSeeds(g, c.SeedHosts)
}

// validateGraph checks a fast config against a graph world. Beyond the
// IPv4 address machinery, the fast graph driver also has no loss or
// containment channel: neighbor links are modeled lossless, so those
// fields are conflicts rather than silently dropped behavior.
func (c *FastConfig) validateGraph(g topo.Graph) error {
	err := firstConflict(g.Name(), []topoConflict{
		{c.Pop != nil, "Pop", "graph worlds carry their own node set; populations (and their NAT sites) are IPv4 address structure"},
		{c.Model != nil, "Model", "rate models mix IPv4 address ranges; graph rates come from neighbor-list geometry"},
		{c.BlockedDst != nil, "BlockedDst", "hard-blocked destination space is an IPv4 interval-set concept"},
		{c.Sensors != nil, "Sensors", "graph sensor hits are node events counted in outcomes, not address observations"},
		{c.SensorSet != nil, "SensorSet", "graph sensors are nodes declared by the world, not darknet address blocks"},
		{c.LossRate != 0, "LossRate", "graph neighbor links are modeled lossless; thin ScanRate instead"}, //lint:ignore float-eq zero is the unset default; any nonzero LossRate, however small, was set by the caller
		{c.Containment != nil, "Containment", "containment scales delivery over the IPv4 wire model"},
		{c.Faults != nil, "Faults", "fault plans schedule outages over IPv4 blocks"},
	})
	if err != nil {
		return err
	}
	if err := c.params().check(false); err != nil {
		return err
	}
	return checkGraphSeeds(g, c.SeedHosts)
}

// checkGraphSeeds bounds SeedHosts by the world's susceptible (non-
// sensor) node count — sensor nodes can never be infected, seeds
// included.
func checkGraphSeeds(g topo.Graph, seedHosts int) error {
	sus := g.Nodes() - g.SensorCount()
	if seedHosts <= 0 || seedHosts > sus {
		return fmt.Errorf("sim: seed hosts %d out of range (graph has %d susceptible nodes)", seedHosts, sus)
	}
	return nil
}
