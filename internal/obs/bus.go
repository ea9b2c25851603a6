package obs

import "sync"

// Bus is a bounded, concurrency-safe event log: a ring buffer holding the
// most recent events (older ones are evicted and counted, never blocked
// on). Sequence numbers are assigned at publish time and strictly increase, so a reader
// polling Since(last+1) sees every retained event exactly once.
type Bus struct {
	mu sync.Mutex
	// buf is the ring storage. guarded by mu
	buf []Event
	// head indexes the oldest retained event. guarded by mu
	head int
	// n is the number of retained events. guarded by mu
	n int
	// seq is the last assigned sequence number. guarded by mu
	seq uint64
	// evicted counts events pushed out of the ring. guarded by mu
	evicted uint64
}

// DefaultRingSize bounds the bus when Options.RingSize is zero.
const DefaultRingSize = 8192

// NewBus creates a bus retaining up to size events (DefaultRingSize when
// size <= 0).
func NewBus(size int) *Bus {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Bus{buf: make([]Event, size)}
}

// Publish assigns the event its sequence number and appends it to the ring,
// evicting the oldest if full. It returns the assigned sequence number.
func (b *Bus) Publish(ev Event) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	ev.Seq = b.seq
	if b.n == len(b.buf) {
		b.head = (b.head + 1) % len(b.buf)
		b.n--
		b.evicted++
	}
	b.buf[(b.head+b.n)%len(b.buf)] = ev
	b.n++
	return ev.Seq
}

// Since returns the retained events with Seq >= minSeq, oldest first.
// Since(0) and Since(1) both return everything retained.
func (b *Bus) Since(minSeq uint64) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, b.n)
	for i := 0; i < b.n; i++ {
		ev := b.buf[(b.head+i)%len(b.buf)]
		if ev.Seq >= minSeq {
			out = append(out, ev)
		}
	}
	return out
}

// LastSeq returns the most recently assigned sequence number (0 before the
// first publish).
func (b *Bus) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Len returns the number of retained events.
func (b *Bus) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Evicted returns how many events the ring has pushed out.
func (b *Bus) Evicted() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evicted
}
