// Package bitset implements dense fixed-capacity bit sets.
//
// Two subsystems depend on it: the cluster's constraint index, which keeps
// one bit set per (attribute, value-bucket) so that "which machines satisfy
// this constraint set" is a handful of word-wise ANDs over 15,000 machines,
// and Eagle's Succinct State Sharing, where the centralized scheduler
// gossips the set of workers currently holding long jobs as a bit vector
// (paper §IV-A).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; construct sized sets with New.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set able to hold bits [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len reports the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i. Out-of-range indices are ignored.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i. Out-of-range indices are ignored.
func (s *Set) Clear(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set. Out-of-range indices report false.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Words exposes the backing word slice (64 bits per word, bit i of the set
// at word i/64). Callers must treat it as read-only; it is shared, not
// copied, so that word-wise streaming operations (the cluster index's
// materialization-free satisfying counts) need no allocation.
func (s *Set) Words() []uint64 { return s.words }

// Count reports the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of other. Both sets must have the
// same capacity; mismatched capacities are a programming error reported via
// the returned error.
func (s *Set) CopyFrom(other *Set) error {
	if s.n != other.n {
		return fmt.Errorf("bitset: copy capacity mismatch: %d != %d", s.n, other.n)
	}
	copy(s.words, other.words)
	return nil
}

// SetAll sets every bit in [0, Len).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim clears the unused high bits of the last word so that Count and
// iteration never observe bits beyond the capacity.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

// And intersects other into s (s &= other). Capacities must match.
func (s *Set) And(other *Set) error {
	if s.n != other.n {
		return fmt.Errorf("bitset: and capacity mismatch: %d != %d", s.n, other.n)
	}
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
	return nil
}

// Or unions other into s (s |= other). Capacities must match.
func (s *Set) Or(other *Set) error {
	if s.n != other.n {
		return fmt.Errorf("bitset: or capacity mismatch: %d != %d", s.n, other.n)
	}
	for i := range s.words {
		s.words[i] |= other.words[i]
	}
	return nil
}

// AndNot removes other's bits from s (s &^= other). Capacities must match.
func (s *Set) AndNot(other *Set) error {
	if s.n != other.n {
		return fmt.Errorf("bitset: andnot capacity mismatch: %d != %d", s.n, other.n)
	}
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
	return nil
}

// NextSet returns the index of the first set bit >= i, or -1 if none.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// NthSet returns the index of the n-th set bit (0-based, in ascending
// order), or -1 when fewer than n+1 bits are set. Schedulers use it to
// sample uniformly from a candidate set without materializing indices.
func (s *Set) NthSet(n int) int {
	if n < 0 {
		return -1
	}
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if n >= c {
			n -= c
			continue
		}
		for ; w != 0; w &= w - 1 {
			if n == 0 {
				return wi*wordBits + bits.TrailingZeros64(w)
			}
			n--
		}
	}
	return -1
}

// NthSets is NthSet over a batch: it replaces each ranks[i] with
// NthSet(ranks[i]), in place and in list order (ranks may repeat and need not
// be sorted). One prefix-popcount pass over the words fills scratch; each
// rank then costs a binary search for its word plus an in-word select, so a
// batch of k ranks is O(words + k log words) where per-rank NthSet calls are
// O(k * words). scratch is grown if too short and returned: a caller that
// keeps it across calls allocates nothing.
func (s *Set) NthSets(ranks []int, scratch []int32) []int32 {
	nw := len(s.words)
	if cap(scratch) < nw+1 {
		scratch = make([]int32, nw+1)
	}
	prefix := scratch[:nw+1]
	var c int32
	for i, w := range s.words {
		prefix[i] = c
		c += int32(bits.OnesCount64(w))
	}
	prefix[nw] = c
	for i, r := range ranks {
		if r < 0 || r >= int(c) {
			ranks[i] = -1
			continue
		}
		// The last word whose prefix is <= r holds the bit: every later
		// word starts past r, and an empty word cannot be last because its
		// successor's prefix equals its own.
		lo, hi := 0, nw-1
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if int(prefix[mid]) <= r {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		ranks[i] = lo*wordBits + selectInWord(s.words[lo], r-int(prefix[lo]))
	}
	return scratch
}

// selectInWord returns the position of w's n-th set bit (0-based); w must
// have more than n set bits. Halving by popcount narrows to a byte before
// the bit-clearing loop.
func selectInWord(w uint64, n int) int {
	pos := 0
	if c := bits.OnesCount32(uint32(w)); n >= c {
		n -= c
		w >>= 32
		pos = 32
	}
	if c := bits.OnesCount16(uint16(w)); n >= c {
		n -= c
		w >>= 16
		pos += 16
	}
	if c := bits.OnesCount8(uint8(w)); n >= c {
		n -= c
		w >>= 8
		pos += 8
	}
	for ; n > 0; n-- {
		w &= w - 1
	}
	return pos + bits.TrailingZeros64(w)
}

// ForEach calls fn for every set bit in ascending order. fn returning false
// stops the iteration early.
func (s *Set) ForEach(fn func(i int) bool) {
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		if !fn(i) {
			return
		}
	}
}

// Indices returns the set bits in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as a sorted index list, e.g. "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
