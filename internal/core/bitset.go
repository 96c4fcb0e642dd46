package core

import "math/bits"

// bitset is a two-level bitmap over runnable IDs used by the due-cycle
// timer wheel. Level 0 is the payload (one bit per runnable); level 1 is
// a summary bitmap with one bit per payload word, so scanning a sparse
// set costs O(set bits + words/64) instead of O(words): the sweep touches
// only summary words and the payload words that actually carry due bits.
//
// All mutation happens under the watchdog's lock; bitset itself is not
// synchronized.
type bitset struct {
	words   []uint64
	summary []uint64
	n       int // population count, kept so empty buckets are O(1)
}

// newBitset sizes a bitset for ids in [0, size).
func newBitset(size int) *bitset {
	w := (size + 63) / 64
	if w == 0 {
		w = 1
	}
	s := (w + 63) / 64
	if s == 0 {
		s = 1
	}
	return &bitset{words: make([]uint64, w), summary: make([]uint64, s)}
}

// set inserts id; inserting a present id is a no-op.
func (b *bitset) set(id int) {
	w := uint(id) >> 6
	m := uint64(1) << (uint(id) & 63)
	if b.words[w]&m != 0 {
		return
	}
	b.words[w] |= m
	b.summary[w>>6] |= 1 << (w & 63)
	b.n++
}

// orWord inserts the ids of payload word wi whose bits are set in m,
// which must be non-zero.
func (b *bitset) orWord(wi int, m uint64) {
	old := b.words[wi]
	b.words[wi] = old | m
	b.summary[wi>>6] |= 1 << (uint(wi) & 63)
	b.n += bits.OnesCount64(m &^ old)
}

// clear removes id; removing an absent id is a no-op.
func (b *bitset) clear(id int) {
	w := uint(id) >> 6
	m := uint64(1) << (uint(id) & 63)
	if b.words[w]&m == 0 {
		return
	}
	b.words[w] &^= m
	if b.words[w] == 0 {
		b.summary[w>>6] &^= 1 << (w & 63)
	}
	b.n--
}

// contains reports membership.
func (b *bitset) contains(id int) bool {
	return b.words[uint(id)>>6]&(1<<(uint(id)&63)) != 0
}

// len reports the population count; a nil bitset (a bucket never
// allocated) is empty.
func (b *bitset) len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// drainInto appends all members in ascending order to dst, clears the
// set, and returns the extended slice. Iteration walks only summary words
// and non-zero payload words.
func (b *bitset) drainInto(dst []uint32) []uint32 {
	if b.n == 0 {
		return dst
	}
	for si, sw := range b.summary {
		for sw != 0 {
			w := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			pw := b.words[w]
			b.words[w] = 0
			for pw != 0 {
				dst = append(dst, uint32(w<<6+bits.TrailingZeros64(pw)))
				pw &= pw - 1
			}
		}
		b.summary[si] = 0
	}
	b.n = 0
	return dst
}

// appendMembers appends all members in ascending order to dst without
// clearing the set.
func (b *bitset) appendMembers(dst []uint32) []uint32 {
	if b.n == 0 {
		return dst
	}
	for si, sw := range b.summary {
		for sw != 0 {
			w := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			pw := b.words[w]
			for pw != 0 {
				dst = append(dst, uint32(w<<6+bits.TrailingZeros64(pw)))
				pw &= pw - 1
			}
		}
	}
	return dst
}
