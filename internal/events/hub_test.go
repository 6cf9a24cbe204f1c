package events

import (
	"sync"
	"testing"
	"time"
)

func collect(t *testing.T, sub *Subscriber, n int) []Event {
	t.Helper()
	out := make([]Event, 0, n)
	timeout := time.After(2 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				t.Fatalf("channel closed after %d/%d events", len(out), n)
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("timed out after %d/%d events", len(out), n)
		}
	}
	return out
}

// TestHubFilterAndOrder: a job subscriber sees its own job's events and
// job-less events (ring membership), in publication order with
// monotonic seq; a firehose subscriber sees everything.
func TestHubFilterAndOrder(t *testing.T) {
	h := &Hub{Clock: func() int64 { return 42 }}
	fire := h.Subscribe("", 16)
	defer fire.Close()
	one := h.Subscribe("j1", 16)
	defer one.Close()

	h.Publish(Event{Type: TypeJobQueued, Job: "j1"})
	h.Publish(Event{Type: TypeJobQueued, Job: "j2"})
	h.Publish(Event{Type: TypeWorkerUp, Worker: "w"}) // job-less: passes every filter
	h.Publish(Event{Type: TypeJobDone, Job: "j1"})

	all := collect(t, fire, 4)
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("seq not monotonic: %d after %d", all[i].Seq, all[i-1].Seq)
		}
	}
	if all[0].TimeNS != 42 {
		t.Fatalf("Clock override not used: time_ns %d", all[0].TimeNS)
	}

	mine := collect(t, one, 3)
	types := []string{mine[0].Type, mine[1].Type, mine[2].Type}
	want := []string{TypeJobQueued, TypeWorkerUp, TypeJobDone}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("filtered stream = %v, want %v", types, want)
		}
	}
	for _, ev := range mine {
		if ev.Job != "" && ev.Job != "j1" {
			t.Fatalf("job filter leaked event for %q", ev.Job)
		}
	}
}

// TestHubDropsNotBlocks: a subscriber that stops reading loses frames
// (counted on both the subscriber and the hub) while Publish returns
// immediately.
func TestHubDropsNotBlocks(t *testing.T) {
	h := &Hub{}
	sub := h.Subscribe("", 2)
	defer sub.Close()

	start := time.Now()
	for i := 0; i < 10; i++ {
		h.Publish(Event{Type: TypeInterval})
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("publishing to a stalled subscriber took %s; must not block", d)
	}
	if got := sub.Dropped(); got != 8 {
		t.Fatalf("subscriber dropped %d frames, want 8", got)
	}
	if got := h.Dropped(); got != 8 {
		t.Fatalf("hub dropped %d frames, want 8", got)
	}
	if got := h.Published(); got != 10 {
		t.Fatalf("hub published %d, want 10", got)
	}
}

// TestHubCloseRace: closing subscribers concurrently with publishes and
// re-subscribes must be safe (no send on closed channel); run under
// -race.
func TestHubCloseRace(t *testing.T) {
	h := &Hub{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Publish(Event{Type: TypeInterval, Job: "j"})
			}
		}
	}()
	for i := 0; i < 50; i++ {
		sub := h.Subscribe("j", 1)
		go func() {
			for range sub.C() {
			}
		}()
		sub.Close()
		sub.Close() // idempotent
	}
	close(stop)
	wg.Wait()
	if h.Subscribers() != 0 {
		t.Fatalf("%d subscribers leaked", h.Subscribers())
	}
}

// TestHubPublishNoSubscribersAllocs pins the fast path the cycle loop
// depends on: with nobody subscribed, Publish is allocation-free.
func TestHubPublishNoSubscribersAllocs(t *testing.T) {
	h := &Hub{}
	ev := Event{Type: TypeInterval, Job: "j1", Key: "k"}
	allocs := testing.AllocsPerRun(100, func() {
		h.Publish(ev)
	})
	if allocs != 0 {
		t.Fatalf("no-subscriber Publish allocated %.1f objects; want 0", allocs)
	}
}

// TestHubEventByValue: a published event is decoupled from the
// publisher's copy — mutating the source after Publish must not change
// what the subscriber received (the sampler's ring slot is reused).
func TestHubEventByValue(t *testing.T) {
	h := &Hub{}
	sub := h.Subscribe("", 1)
	defer sub.Close()
	ev := Event{Type: TypeInterval, Key: "before"}
	h.Publish(ev)
	ev.Key = "after"
	got := collect(t, sub, 1)[0]
	if got.Key != "before" {
		t.Fatalf("subscriber saw mutated event: key %q", got.Key)
	}
}

// TestHubConcurrentPublishersOrdered: many goroutines publishing at once
// must still reach a subscriber in strictly increasing Seq order, or
// -assert-order consumers see phantom reorderings.
func TestHubConcurrentPublishersOrdered(t *testing.T) {
	const publishers, each = 8, 500
	h := &Hub{}
	sub := h.Subscribe("", publishers*each)
	defer sub.Close()
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Publish(Event{Type: TypeInterval, Job: "j1"})
			}
		}()
	}
	wg.Wait()
	got := collect(t, sub, publishers*each)
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("seq not increasing at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d frames", sub.Dropped())
	}
}
