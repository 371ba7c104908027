package netenv

import (
	"fmt"

	"repro/internal/ipv4"
	"repro/internal/rng"
)

// OrgKind classifies an address-space holder for the Table 2 study.
type OrgKind int

// Organization kinds.
const (
	Enterprise OrgKind = iota + 1 // Fortune-100-style corporate network
	BroadbandISP
)

// String names the kind.
func (k OrgKind) String() string {
	switch k {
	case Enterprise:
		return "enterprise"
	case BroadbandISP:
		return "broadband-isp"
	default:
		return fmt.Sprintf("OrgKind(%d)", int(k))
	}
}

// Org is an organization with registered address space and an egress
// filtering posture. The paper's Table 2 contrast: enterprises run strict
// egress filtering (so internal infections barely leak), broadband ISPs run
// essentially none (tens of thousands of infections visible).
type Org struct {
	Name string
	Kind OrgKind
	// Prefixes is the address space ARIN-style allocated to the org.
	Prefixes []ipv4.Prefix
	// EgressDrop is the probability an outbound worm probe is dropped at
	// the org's border.
	EgressDrop float64
	// InfectionDensity is the fraction of the org's addresses hosting a
	// persistently infected machine ("stamping out all infections is
	// nearly impossible").
	InfectionDensity float64
}

// TotalAddrs returns the size of the org's allocation.
func (o Org) TotalAddrs() uint64 {
	var n uint64
	for _, p := range o.Prefixes {
		n += p.NumAddrs()
	}
	return n
}

// OrgModelConfig parameterizes the synthetic Table 2 universe.
type OrgModelConfig struct {
	// Enterprises and ISPs to generate.
	Enterprises int
	ISPs        int
	// EnterpriseEgressDrop is the border-drop probability at enterprises
	// (near 1: pervasive filtering); ISPEgressDrop near 0.
	EnterpriseEgressDrop float64
	ISPEgressDrop        float64
	// EnterpriseDensity / ISPDensity are infected-host densities. ISPs host
	// consumer machines, far more likely to be infected.
	EnterpriseDensity float64
	ISPDensity        float64
	Seed              uint64
}

// DefaultOrgModel returns the configuration used by the Table 2
// reproduction: enterprises with hundreds of thousands of addresses behind
// near-total egress filtering, broadband ISPs with millions of addresses
// and none.
func DefaultOrgModel(seed uint64) OrgModelConfig {
	return OrgModelConfig{
		Enterprises:          10,
		ISPs:                 3,
		EnterpriseEgressDrop: 0.999,
		ISPEgressDrop:        0.0,
		EnterpriseDensity:    0.0008,
		ISPDensity:           0.004,
		Seed:                 seed,
	}
}

// SynthesizeOrgs builds the synthetic organization universe. Enterprise
// allocations are a few /16s each; ISP allocations are several /12–/13s,
// reflecting the paper's observation that broadband providers manage far
// more (and far more infected) address space. Allocations never overlap.
func SynthesizeOrgs(cfg OrgModelConfig) []Org {
	r := rng.NewXoshiro(cfg.Seed)
	var orgs []Org
	// Carve enterprise space out of 144/8-ish ranges and ISP space out of
	// 24/8-ish ranges; concrete octets are arbitrary but deterministic and
	// non-overlapping.
	nextEnt := uint32(144<<24 | 0<<16)
	for i := 0; i < cfg.Enterprises; i++ {
		nPrefixes := 1 + r.Intn(3)
		var prefixes []ipv4.Prefix
		for j := 0; j < nPrefixes; j++ {
			p, err := ipv4.NewPrefix(ipv4.Addr(nextEnt), 16)
			if err != nil {
				panic(err) // unreachable: 16 is valid
			}
			prefixes = append(prefixes, p)
			nextEnt += 1 << 16
		}
		orgs = append(orgs, Org{
			Name:             fmt.Sprintf("Corp-%02d", i+1),
			Kind:             Enterprise,
			Prefixes:         prefixes,
			EgressDrop:       cfg.EnterpriseEgressDrop,
			InfectionDensity: cfg.EnterpriseDensity,
		})
	}
	nextISP := uint32(24 << 24)
	for i := 0; i < cfg.ISPs; i++ {
		nPrefixes := 2 + r.Intn(2)
		var prefixes []ipv4.Prefix
		for j := 0; j < nPrefixes; j++ {
			p, err := ipv4.NewPrefix(ipv4.Addr(nextISP), 13)
			if err != nil {
				panic(err) // unreachable: 13 is valid
			}
			prefixes = append(prefixes, p)
			nextISP += 1 << 19
		}
		orgs = append(orgs, Org{
			Name:             fmt.Sprintf("ISP-%c", 'A'+i),
			Kind:             BroadbandISP,
			Prefixes:         prefixes,
			EgressDrop:       cfg.ISPEgressDrop,
			InfectionDensity: cfg.ISPDensity,
		})
	}
	return orgs
}
