package types

import (
	"iter"
	"math/bits"
)

// ValidatorSet is a set of committee members held as a bitset over their
// dense IDs: bit i of word i/64 is validator i. It is what the consensus core
// uses wherever it used to key a hash map by validator or by vertex digest —
// the voters of a certificate, the sources present in a DAG round, the
// parents of a vertex — so membership is a shift and a mask, and the union of
// two sets is one OR per 64 validators.
//
// A set has the capacity it was created with (NewValidatorSet); Has answers
// false beyond it, Add must stay within it.
type ValidatorSet []uint64

// ValidatorSetWords is the length of a ValidatorSet over n validators.
func ValidatorSetWords(n int) int { return (n + 63) / 64 }

// NewValidatorSet returns an empty set with room for validators 0..n-1.
func NewValidatorSet(n int) ValidatorSet {
	return make(ValidatorSet, ValidatorSetWords(n))
}

// Has reports whether id is in the set.
func (s ValidatorSet) Has(id ValidatorID) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

// Add inserts id, which must be below the set's capacity.
func (s ValidatorSet) Add(id ValidatorID) { s[id>>6] |= 1 << (id & 63) }

// Remove deletes id, which must be below the set's capacity.
func (s ValidatorSet) Remove(id ValidatorID) { s[id>>6] &^= 1 << (id & 63) }

// Union adds every member of o, a set of the same capacity.
func (s ValidatorSet) Union(o ValidatorSet) {
	for i, w := range o {
		s[i] |= w
	}
}

// Clear empties the set.
func (s ValidatorSet) Clear() { clear(s) }

// Empty reports whether the set has no member.
func (s ValidatorSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of members.
func (s ValidatorSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// All iterates the members in ascending ID order. The loop body may Remove
// the member it was just handed.
func (s ValidatorSet) All() iter.Seq[ValidatorID] {
	return func(yield func(ValidatorID) bool) {
		for i := range s {
			for w := s[i]; w != 0; w &= w - 1 {
				if !yield(ValidatorID(i<<6 + bits.TrailingZeros64(w))) {
					return
				}
			}
		}
	}
}
