package fleet

// CoordinatorJobs exposes the coordinator's job-slot count to the
// external tests.
const CoordinatorJobs = coordinatorJobs

// Pick exposes the rendezvous placement, so external tests can choose
// specs that shard onto a given worker.
var Pick = pick
