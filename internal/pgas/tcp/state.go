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
// so owner-side Local/RelaxedLoad64 semantics match shm.
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

func (h *heap) addData(nbytes int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.data = append(h.data, make([]byte, nbytes))
	h.cond.Broadcast()
	return len(h.data) - 1
}

func (h *heap) addWords(nwords int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.words = append(h.words, make([]int64, nwords))
	h.cond.Broadcast()
	return len(h.words) - 1
}

// dataSeg returns the local instance of data segment seg, waiting until
// the owner's collective schedule has allocated it.
func (h *heap) dataSeg(seg int) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	for seg >= len(h.data) {
		h.cond.Wait()
	}
	return h.data[seg]
}

// wordSeg returns the local instance of word segment seg, waiting until
// allocated.
func (h *heap) wordSeg(seg int) []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for seg >= len(h.words) {
		h.cond.Wait()
	}
	return h.words[seg]
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

// barrierMgr is the counter-based barrier state hosted on rank 0. Every
// rank enters once per barrier (remotely via opBarrier, rank 0 locally);
// the release callbacks fire when the count reaches n. The count resets
// before any callback runs, so a released rank re-entering immediately
// counts into the next round.
//
// Remote releases always run before the local one. The local release
// unblocks rank 0's own goroutine, and after the completion barrier that
// goroutine exits the process: were it released first, the process could
// die before the serve goroutines had written the remote ranks' reply
// frames, severing their connections mid-barrier.
// Releases take an error: nil on a completed round, the world's fault
// when the barrier can never complete because a member died (fail).
type barrierMgr struct {
	mu      sync.Mutex
	n       int
	arrived int
	remote  []func(error)
	local   func(error)
	err     error // non-nil once a member died: the barrier is permanently broken
}

func newBarrierMgr(n int) *barrierMgr { return &barrierMgr{n: n} }

// enter records one remote arrival whose release writes a reply frame.
func (b *barrierMgr) enter(release func(error)) { b.arrive(release, false) }

// enterLocal records rank 0's own arrival.
func (b *barrierMgr) enterLocal(release func(error)) { b.arrive(release, true) }

func (b *barrierMgr) arrive(release func(error), isLocal bool) {
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		release(err)
		return
	}
	if isLocal {
		b.local = release
	} else {
		b.remote = append(b.remote, release)
	}
	b.arrived++
	if b.arrived < b.n {
		b.mu.Unlock()
		return
	}
	remotes, local := b.remote, b.local
	b.remote, b.local = nil, nil
	b.arrived = 0
	b.mu.Unlock()
	for _, r := range remotes {
		r(nil)
	}
	if local != nil {
		local(nil)
	}
}

// fail breaks the barrier permanently: every parked arrival is released
// with err, and every later arrival is released with err immediately — a
// barrier missing a member can never complete again.
func (b *barrierMgr) fail(err error) {
	b.mu.Lock()
	if b.err != nil {
		b.mu.Unlock()
		return
	}
	b.err = err
	remotes, local := b.remote, b.local
	b.remote, b.local = nil, nil
	b.arrived = 0
	b.mu.Unlock()
	for _, r := range remotes {
		r(err)
	}
	if local != nil {
		local(err)
	}
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
