package fleet

import "mssr/internal/events"

// CoordinatorJobs exposes the coordinator's job-slot count to the
// external tests.
const CoordinatorJobs = coordinatorJobs

// Pick exposes the rendezvous placement, so external tests can choose
// specs that shard onto a given worker.
var Pick = pick

// Steal sets up a ring of an idle thief and one healthy owner, with
// queued units waiting on the owner and inflight in its dispatch, under
// the given chunk size, and returns how many units the thief steals.
func Steal(chunk, queued, inflight int) int {
	d := newDispatcher(Config{ChunkSize: chunk}.withDefaults())
	defer d.cancel()
	d.hub = &events.Hub{}
	owner := &worker{addr: "owner", healthy: true, inflight: inflight}
	for range queued {
		owner.queue = append(owner.queue, &unit{})
	}
	thief := &worker{addr: "thief", healthy: true}
	d.workers[owner.addr], d.workers[thief.addr] = owner, thief
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.stealLocked(thief))
}
