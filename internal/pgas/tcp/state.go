package tcp

import (
	"fmt"
	"sync"

	"scioto/internal/pgas"
)

// heap is one rank's local instance of the symmetric heap. Segments are
// appended in collective allocation order by the owning SPMD goroutine;
// service goroutines applying remote operations for a segment the owner
// has not allocated yet wait for it to appear (the requester is ahead of
// the owner in the collective schedule, which the discipline permits).
//
// Bulk data bytes are deliberately unsynchronized, exactly as in the shm
// transport: callers coordinate overlapping Get/Put at the application
// protocol level. Word cells are accessed with sync/atomic by both the
// owner and the service goroutines, and accumulates serialize on accMu,
// so owner-side Local/LocalWords semantics match shm.
type heap struct {
	mu    sync.Mutex
	cond  *sync.Cond
	data  [][]byte
	words [][]int64

	accMu sync.Mutex // ARMCI_Acc atomicity: one accumulate at a time per rank
}

func newHeap() *heap {
	h := &heap{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// The heap's two segment tables, data and words, are grown and read the
// same way: addSeg appends an instance and wakes whoever waits for it, and
// segAt returns one, waiting until the owner's collective schedule has
// allocated it.
func (h *heap) addData(nbytes int) int  { return addSeg(h, &h.data, nbytes) }
func (h *heap) addWords(nwords int) int { return addSeg(h, &h.words, nwords) }
func (h *heap) dataSeg(s int) []byte    { return segAt(h, &h.data, s) }
func (h *heap) wordSeg(s int) []int64   { return segAt(h, &h.words, s) }

func addSeg[T any](h *heap, table *[][]T, n int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	*table = append(*table, make([]T, n))
	h.cond.Broadcast()
	return len(*table) - 1
}

func segAt[T any](h *heap, table *[][]T, s int) []T {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s >= len(*table) {
		h.cond.Wait()
	}
	return (*table)[s]
}

// window returns bytes [off, off+n) of data segment seg, waiting for the
// segment's allocation; an error means the range is not inside it.
func (h *heap) window(seg pgas.Seg, off, n int) ([]byte, error) {
	b := h.dataSeg(int(seg))
	if off < 0 || n < 0 || off > len(b)-n {
		return nil, fmt.Errorf("data access [%d, %d) outside segment %d (%d bytes)", off, off+n, seg, len(b))
	}
	return b[off : off+n], nil
}

// apply performs one one-sided operation on this heap: the single path of
// the owner's self-targeting operations and of the service applying a
// peer's request.
func (h *heap) apply(op *pgas.Op) error {
	if op.Kind.IsWord() {
		w := h.wordSeg(int(op.Seg))
		if op.Off < 0 || op.Off >= len(w) {
			return fmt.Errorf("word access %d outside segment %d (%d words)", op.Off, op.Seg, len(w))
		}
		op.ApplyWord(&w[op.Off])
		return nil
	}
	win, err := h.window(op.Seg, op.Off, op.Bytes())
	if err != nil {
		return err
	}
	if op.Kind == pgas.OpAccF64 {
		h.accMu.Lock()
		defer h.accMu.Unlock()
	}
	op.ApplyData(win)
	return nil
}

// message is a delivered two-sided message.
type message struct {
	from int
	tag  int32
	data []byte
}

// mailbox is the per-rank queue of incoming messages with tag/source
// matching, identical in semantics to the shm transport's mailbox, plus
// poisoning: once the world faults, a blocked Recv would otherwise wait
// forever for a message its dead sender will never push.
type mailbox struct {
	mu   sync.Mutex
	cv   *sync.Cond
	msgs []message
	err  error
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cv = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) push(m message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.cv.Broadcast()
	b.mu.Unlock()
}

// poison wakes every blocked pop with err and makes later blocking pops
// fail once no matching message is queued. Already-delivered messages
// remain receivable: they arrived before the fault.
func (b *mailbox) poison(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
		b.cv.Broadcast()
	}
	b.mu.Unlock()
}

// pop removes and returns the first message matching (from, tag). If block
// is true it waits for one; otherwise a zero message with from = -1 is
// returned when nothing matches. from may be pgas.AnySource. A non-nil
// error means the mailbox was poisoned while no matching message was
// available.
func (b *mailbox) pop(from int, tag int32, block bool) (message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.msgs {
			if (from == pgas.AnySource || m.from == from) && m.tag == tag {
				b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
				return m, nil
			}
		}
		if b.err != nil {
			return message{from: -1}, b.err
		}
		if !block {
			return message{from: -1}, nil
		}
		b.cv.Wait()
	}
}
