package fleet

// CoordinatorJobs exposes the coordinator's job-slot count to the
// external tests.
const CoordinatorJobs = coordinatorJobs
