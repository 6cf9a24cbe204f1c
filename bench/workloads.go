package main

// workload is one benchmark workload: a set of inputs the benchmark runs
// and why it is in the set.
type workload struct {
	name  string
	why   string
	scale int // program scale of a sweep
	run   func(options, *golden, *Result, *tracer) error
}

var allWorkloads = []workload{
	{"grid-detail", "the paper's 12-config figure sweep in full detail: the detailed cycle loop does almost all the work",
		0, runSweepWorkload(kindGrid)},
	{"sampled-uniform", "warmed uniform sampling without checkpoints: functional fast-forward and warming dominate; the checkpoint store is bypassed",
		1, runSweepWorkload(kindUniform)},
	{"sampled-ckpt", "checkpoint-warm k-means sampling: restores plus detailed windows, zero functional instructions",
		1, runSweepWorkload(kindKMeans)},
	{"served", "closed-loop clients through a loopback fleet of two msrd workers: 9 in 10 requests hit the cache or store, 1 in 10 simulates",
		0, runServed},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}
