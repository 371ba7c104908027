package ipv4

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is a CIDR block: a base address and a mask length.
// The zero value is 0.0.0.0/0, the whole IPv4 space.
type Prefix struct {
	addr Addr
	bits uint8
}

// NewPrefix builds the /bits prefix containing addr. Host bits of addr are
// cleared. It returns an error if bits exceeds 32.
func NewPrefix(addr Addr, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipv4: prefix length %d out of range [0,32]", bits)
	}
	return Prefix{addr: addr & maskFor(bits), bits: uint8(bits)}, nil
}

// ParsePrefix parses CIDR notation such as "192.168.0.0/16".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipv4: parse prefix %q: missing '/'", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("ipv4: parse prefix %q: %v", s, err)
	}
	return NewPrefix(addr, bits)
}

// MustParsePrefix is like ParsePrefix but panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func maskFor(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return MaxAddr << (32 - uint(bits))
}

// Addr returns the base (network) address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the mask length of p.
func (p Prefix) Bits() int { return int(p.bits) }

// NumAddrs returns the number of addresses covered by p (up to 2^32).
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - uint(p.bits)) }

// First returns the lowest address in p (the network address).
func (p Prefix) First() Addr { return p.addr }

// Last returns the highest address in p (the broadcast address).
func (p Prefix) Last() Addr { return p.addr | ^maskFor(int(p.bits)) }

// Contains reports whether a lies inside p.
func (p Prefix) Contains(a Addr) bool { return a&maskFor(int(p.bits)) == p.addr }

// Nth returns the i-th address in p, counting from the network address.
// It panics if i is out of range; callers index with values < NumAddrs.
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.NumAddrs() {
		panic(fmt.Sprintf("ipv4: index %d out of range for %v", i, p))
	}
	return p.addr + Addr(i)
}

// Range returns the inclusive [first,last] interval covered by p.
func (p Prefix) Range() Interval { return Interval{Lo: p.First(), Hi: p.Last()} }

// String renders p in CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Slash24s returns the number of /24 networks covered by p. Prefixes longer
// than /24 report 1 (they live inside a single /24).
func (p Prefix) Slash24s() int {
	if p.bits >= 24 {
		return 1
	}
	return 1 << (24 - uint(p.bits))
}
