package workload

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"softerror/internal/isa"
)

// This file is the process-wide store of decoded streams. Every analysis
// the paper reports starts from one benchmark's committed stream: the
// batched simulator's lanes (core), the static bound (static.Analyze) and
// sweep pricing (sweep.Grid.EstimateCells) all read it. Each used to
// decode its own, so a daemon serving evals, sweeps and bounds over the
// same roster decoded every benchmark several times per round. A Store
// keeps decoded streams between those callers, under a byte budget:
//
//   - Checkout hands a stream to one user at a time. A second concurrent
//     user of the same workload decodes a private copy, which Release
//     drops: the memos are not safe for concurrent use, and a private copy
//     is exactly the decode the caller would have paid without the store.
//   - The budget bounds the memos' capacity in bytes, busy or idle. A fresh
//     decode that would overflow it evicts idle streams least recently
//     released first and decodes into their arrays (Shared.Recycle). A
//     release that leaves the store over budget (a memo outgrew its
//     reservation) evicts the other idle streams until it fits; a stream
//     larger than the whole budget is dropped. A single user therefore
//     never holds more than the budget, and concurrent users hold at most
//     their own streams on top of it.
//   - A kept stream's content is deterministic in its Params, so a hit is
//     byte-for-byte what a fresh decode would produce, only already
//     materialised. TestStoreCheckoutMatchesFreshDecode pins this against
//     consumers that write into the shared memos.

// DefaultStreamBytes is the process-wide store's budget until a caller
// sets another. The simulator reserves a 100k-commit stream's body at 40
// bytes an instruction (4.0 MB) and its estimated wrong-path draws at 8
// bytes a draw: 0.4–1.0 MB for an integer benchmark, 0.1–0.3 MB for a
// floating-point one. The budget keeps about two integer streams, so each
// of a command-line run's two workers can run a benchmark's batches back
// to back on one decode. A command-line run decodes each benchmark once
// and walks the roster in order, so a larger budget only adds resident
// memory.
const DefaultStreamBytes = 10 << 20

// instBytes is the size of one body memo slot.
const instBytes = int64(unsafe.Sizeof(isa.Inst{}))

// memoBytes is the memory of memos holding body correct-path and wrong
// wrong-path instructions.
func memoBytes(body, wrong int) int64 {
	return int64(body)*instBytes + int64(wrong)*wrongRecBytes
}

// Store keeps decoded streams for reuse across callers. The zero value is
// not usable; build one with NewStore. A Store is safe for concurrent use;
// the streams it hands out are not.
type Store struct {
	decodes, hits atomic.Uint64

	mu      sync.Mutex
	budget  int64
	bytes   int64 // memo capacity of every kept stream, busy or idle
	entries map[Params]*storeEntry
	idle    list.List // of *storeEntry, most recently released at the front
}

// storeEntry is one kept stream. elem is its place in the idle list, nil
// while the stream is checked out.
type storeEntry struct {
	sh    *Shared
	bytes int64
	elem  *list.Element
}

// NewStore returns an empty store that keeps at most budget bytes of memo
// capacity.
func NewStore(budget int64) *Store {
	return &Store{budget: budget, entries: make(map[Params]*storeEntry)}
}

var streams = NewStore(DefaultStreamBytes)

// Streams returns the process-wide store every evaluation path checks
// streams out of.
func Streams() *Store { return streams }

// Checkout returns p's decoded stream for the caller's exclusive use until
// Release. A kept idle stream is a hit; otherwise the stream is decoded
// lazily with its memos reserved for about body correct-path and wrong
// wrong-path instructions (Shared.Reserve), kept unless another user holds
// p's stream. It fails as NewShared does.
func (s *Store) Checkout(p Params, body, wrong int) (*Shared, error) {
	s.mu.Lock()
	e, kept := s.entries[p]
	if kept && e.elem != nil {
		s.idle.Remove(e.elem)
		e.elem = nil
		s.mu.Unlock()
		s.hits.Add(1)
		return e.sh, nil
	}
	sh, err := NewShared(p)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.decodes.Add(1)
	// A busy key gets a private copy.
	if kept {
		s.mu.Unlock()
		sh.Reserve(body, wrong)
		return sh, nil
	}
	need := memoBytes(body, wrong)
	var victims []*Shared
	for s.bytes+need > s.budget {
		v := s.evictOldest()
		if v == nil {
			break
		}
		victims = append(victims, v)
	}
	e = &storeEntry{sh: sh, bytes: need}
	s.entries[p] = e
	s.bytes += need
	s.mu.Unlock()

	for _, v := range victims {
		sh.Recycle(v)
	}
	sh.Reserve(body, wrong)
	if got := sh.capBytes(); got != need {
		s.mu.Lock()
		s.bytes += got - e.bytes
		e.bytes = got
		s.mu.Unlock()
	}
	return sh, nil
}

// Release returns a stream obtained from Checkout. The caller must hold no
// pointer into its memos afterwards: the next user extends them, and an
// eviction hands them to another workload's decode.
func (s *Store) Release(sh *Shared) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[sh.params]
	if e == nil || e.sh != sh {
		return // a private copy
	}
	n := sh.capBytes()
	s.bytes += n - e.bytes
	e.bytes = n
	if n > s.budget {
		s.drop(e)
		return
	}
	// Make room among the other idle streams only. When streams still in
	// use keep the store over budget, the one just released stays anyway:
	// it is the likeliest to be wanted next (a driver runs a workload's
	// batches back to back), and the busy ones shrink the store as they
	// come back.
	s.shrink()
	e.elem = s.idle.PushFront(e)
}

// SetBudget changes the store's byte budget, evicting idle streams until
// the kept ones fit.
func (s *Store) SetBudget(budget int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = budget
	s.shrink()
}

// Budget returns the store's byte budget.
func (s *Store) Budget() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// Bytes returns the memo capacity of the streams the store keeps, checked
// out or idle. Private copies are not counted.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Decodes returns how many streams Checkout has decoded: one per miss,
// private copies included.
func (s *Store) Decodes() uint64 { return s.decodes.Load() }

// Hits returns how many checkouts found their stream kept and idle.
func (s *Store) Hits() uint64 { return s.hits.Load() }

// shrink evicts idle streams, least recently released first, until the
// kept streams fit the budget or none is idle. The evicted memos go to the
// garbage collector: with no decode waiting, holding them would only
// overrun the budget.
func (s *Store) shrink() {
	for s.bytes > s.budget && s.evictOldest() != nil {
	}
}

// evictOldest forgets the least recently released idle stream and returns
// it, or nil when none is idle.
func (s *Store) evictOldest() *Shared {
	back := s.idle.Back()
	if back == nil {
		return nil
	}
	e := back.Value.(*storeEntry)
	s.idle.Remove(back)
	e.elem = nil
	s.drop(e)
	return e.sh
}

// drop forgets a kept stream.
func (s *Store) drop(e *storeEntry) {
	delete(s.entries, e.sh.params)
	s.bytes -= e.bytes
}
