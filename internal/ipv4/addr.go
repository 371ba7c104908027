// Package ipv4 provides the IPv4 address-space substrate used throughout the
// hotspots library: address and prefix arithmetic, CIDR parsing, /8 //16 //24
// indexing, reserved-range classification, and interval-set algebra over the
// 32-bit address space.
//
// The package deliberately avoids net/netip so that addresses are plain
// uint32 values: worm target generators and the simulation engine manipulate
// billions of addresses and need zero-allocation integer math.
package ipv4

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address represented as a host-order 32-bit integer.
// 10.0.0.1 is Addr(0x0a000001).
type Addr uint32

// MaxAddr is the highest IPv4 address, 255.255.255.255.
const MaxAddr Addr = 0xffffffff

// AddrFromOctets assembles an address from its four dotted-quad octets.
func AddrFromOctets(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address such as "192.168.0.100".
func ParseAddr(s string) (Addr, error) {
	var octets [4]byte
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("ipv4: parse %q: expected 4 octets", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		n, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ipv4: parse %q: octet %d: %v", s, i+1, err)
		}
		octets[i] = byte(n)
	}
	return AddrFromOctets(octets[0], octets[1], octets[2], octets[3]), nil
}

// MustParseAddr is like ParseAddr but panics on error. Intended for
// package-level constants and tests.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String renders a in dotted-quad notation.
func (a Addr) String() string {
	o1, o2, o3, o4 := a.Octets()
	// strconv.AppendUint into a stack buffer avoids fmt overhead; this is on
	// the reporting path for millions of addresses.
	buf := make([]byte, 0, 15)
	buf = strconv.AppendUint(buf, uint64(o1), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o2), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o3), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o4), 10)
	return string(buf)
}

// Slash8 returns the index of the /8 network containing a (the first octet).
func (a Addr) Slash8() uint32 { return uint32(a) >> 24 }

// Slash16 returns the index of the /16 network containing a
// (0 .. 65535, i.e. the top two octets).
func (a Addr) Slash16() uint32 { return uint32(a) >> 16 }

// Slash24 returns the index of the /24 network containing a
// (0 .. 2^24-1, i.e. the top three octets).
func (a Addr) Slash24() uint32 { return uint32(a) >> 8 }

// SameSlash16 reports whether a and b share the same /16 network.
func (a Addr) SameSlash16(b Addr) bool { return a.Slash16() == b.Slash16() }

// IsPrivate reports whether a falls inside the RFC 1918 private ranges
// 10.0.0.0/8, 172.16.0.0/12, or 192.168.0.0/16.
func (a Addr) IsPrivate() bool {
	switch {
	case uint32(a)>>24 == 10:
		return true
	case uint32(a)>>20 == 0xac1: // 172.16.0.0/12
		return true
	case uint32(a)>>16 == 0xc0a8: // 192.168.0.0/16
		return true
	}
	return false
}

// IsLoopback reports whether a falls inside 127.0.0.0/8.
func (a Addr) IsLoopback() bool { return uint32(a)>>24 == 127 }

// IsReserved reports whether a is in space a worm probe would never
// productively target: 0.0.0.0/8, loopback, multicast, or 240.0.0.0/4.
func (a Addr) IsReserved() bool {
	return uint32(a)>>24 == 0 || a.IsLoopback() || uint32(a)>>28 >= 0xe
}
