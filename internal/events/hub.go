package events

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBuffer is the per-subscriber channel depth used when Subscribe
// is called with buf <= 0: deep enough to absorb a burst of interval
// frames between writer wakeups, small enough that an abandoned
// subscriber costs little.
const DefaultBuffer = 256

// Hub fans events out to subscribers. Publishing never blocks: each
// subscriber owns a bounded channel, and a full channel drops the frame
// and counts it — a stalled consumer can slow only itself. With no
// subscribers Publish is a single atomic load and returns without
// stamping, copying or allocating, which is what lets the core's
// interval hook stay on the hot path under the zero-alloc guard.
//
// The zero value is ready to use.
type Hub struct {
	// Clock overrides the publication timestamp source (Unix
	// nanoseconds); nil means time.Now. Tests pin it for golden streams.
	Clock func() int64

	mu    sync.Mutex
	subs  map[*Subscriber]struct{}
	nsubs atomic.Int32 // len(subs), readable without the lock
	seq   uint64       // last stamped Seq; under mu

	published atomic.Uint64
	dropped   atomic.Uint64
}

// Subscriber is one registered consumer. Events arrive on C in
// publication order; frames the bounded buffer could not hold are
// counted in Dropped. Close unregisters and closes C.
type Subscriber struct {
	h       *Hub
	job     string // filter: only events with this Job (or job-less events); "" = firehose
	ch      chan Event
	dropped atomic.Uint64
	closed  bool // under h.mu
}

// Subscribe registers a consumer. job filters the stream to one job id
// ("" = firehose: everything); ring-membership and other job-less events
// pass every filter. buf bounds the delivery channel (<= 0 =
// DefaultBuffer).
func (h *Hub) Subscribe(job string, buf int) *Subscriber {
	if buf <= 0 {
		buf = DefaultBuffer
	}
	sub := &Subscriber{h: h, job: job, ch: make(chan Event, buf)}
	h.mu.Lock()
	if h.subs == nil {
		h.subs = make(map[*Subscriber]struct{})
	}
	h.subs[sub] = struct{}{}
	h.nsubs.Store(int32(len(h.subs)))
	h.mu.Unlock()
	return sub
}

// C returns the delivery channel. It is closed by Close.
func (s *Subscriber) C() <-chan Event { return s.ch }

// Dropped reports how many frames this subscriber's full buffer lost.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Close unregisters the subscriber and closes its channel. Safe to call
// more than once and concurrently with Publish (removal and close
// happen under the hub lock, so no publish can send on a closed
// channel).
func (s *Subscriber) Close() {
	h := s.h
	h.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(h.subs, s)
		h.nsubs.Store(int32(len(h.subs)))
		close(s.ch)
	}
	h.mu.Unlock()
}

// Publish stamps the event (Seq, TimeNS) and offers it to every
// matching subscriber without blocking. It reports how many subscribers
// received it. Stamping and delivery share one critical section, so
// every subscriber sees Seq strictly increasing however many goroutines
// publish. The no-subscriber fast path performs one atomic load and no
// allocation.
func (h *Hub) Publish(e Event) int {
	if h.nsubs.Load() == 0 {
		return 0
	}
	delivered := 0
	h.mu.Lock()
	h.seq++
	e.Seq = h.seq
	if c := h.Clock; c != nil {
		e.TimeNS = c()
	} else {
		e.TimeNS = time.Now().UnixNano()
	}
	for sub := range h.subs {
		if sub.job != "" && e.Job != "" && e.Job != sub.job {
			continue
		}
		select {
		case sub.ch <- e:
			delivered++
		default:
			sub.dropped.Add(1)
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
	h.published.Add(1)
	return delivered
}

// Published reports how many events were broadcast (no-subscriber
// publishes are not counted — nothing was on the bus to receive them).
func (h *Hub) Published() uint64 { return h.published.Load() }

// Dropped reports how many frame deliveries were lost to full
// subscriber buffers, summed over all subscribers.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// Subscribers reports the current subscriber count.
func (h *Hub) Subscribers() int { return int(h.nsubs.Load()) }
