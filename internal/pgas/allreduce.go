package pgas

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// AllReduce is Proc's all-reduce: recursive doubling over the barrier's
// live members (barrier.go). With n members and m the largest power of
// two not above n, a member at index i >= m folds its vector into member
// i-m first (round 0) and gets the result back last (round log2(m)+1);
// in between, the members below m exchange their partial results with the
// member at index i xor 2^(k-1) in round k and combine them with op. Each
// member's vector enters every result once, so for a commutative and
// associative op the result is the same on every member, and no member
// returns before every member has entered.
func (f *Front) AllReduce(vec []int64, op func(acc, in []int64)) {
	gen, ok := f.enter()
	if !ok {
		return
	}
	n, i := int32(len(f.live)), f.idx
	m := int32(1) << (bits.Len32(uint32(n)) - 1)
	last := int32(bits.Len32(uint32(m)))
	if i >= m {
		partner := f.live[i-m]
		f.sendVec(partner, f.collTag(kindAllReduce, gen, 0), vec)
		copy(vec, f.recvVec(partner, f.collTag(kindAllReduce, gen, last), len(vec)))
		return
	}
	if i+m < n {
		op(vec, f.recvVec(f.live[i+m], f.collTag(kindAllReduce, gen, 0), len(vec)))
	}
	for dist, round := int32(1), int32(1); dist < m; dist, round = 2*dist, round+1 {
		peer, tag := f.live[i^dist], f.collTag(kindAllReduce, gen, round)
		f.sendVec(peer, tag, vec)
		op(vec, f.recvVec(peer, tag, len(vec)))
	}
	if i+m < n {
		f.sendVec(f.live[i+m], f.collTag(kindAllReduce, gen, last), vec)
	}
}

// Sum is the element-wise sum, the op of most AllReduce calls.
func Sum(acc, in []int64) {
	for i := range acc {
		acc[i] += in[i]
	}
}

// sendVec sends vec, little-endian, from the front's scratch bytes (Send
// copies them).
func (f *Front) sendVec(to int, tag int32, vec []int64) {
	b := f.wire[:0]
	for _, v := range vec {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	f.wire = b
	f.k.Send(to, tag, b)
}

// recvVec receives a vector of n words into the front's scratch vector,
// which is valid until the next call.
func (f *Front) recvVec(from int, tag int32, n int) []int64 {
	b, _ := f.k.Recv(from, tag)
	if len(b) != 8*n {
		panic(fmt.Sprintf("pgas: AllReduce of %d words on rank %d received %d bytes from rank %d", n, f.tag-1, len(b), from))
	}
	f.in = slices.Grow(f.in[:0], n)[:n]
	for j := range f.in {
		f.in[j] = GetI64(b[8*j:])
	}
	return f.in
}
