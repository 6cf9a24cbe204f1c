package fleet

import "hash/fnv"

// The coordinator shards specs onto workers with rendezvous (highest
// random weight) hashing: every (worker, key) pair gets a deterministic
// score and the key goes to the highest-scoring worker. Rendezvous
// hashing has the two properties the fleet needs without virtual-node
// bookkeeping: equal keys always land on the same worker while the
// worker set is stable (so worker-local caches and in-flight dedup
// compose into fleet-wide dedup), and removing a worker re-homes only
// that worker's keys (everyone else's argmax is unchanged) — the
// "re-hash" in the failure path moves the minimum possible work.

// score is the deterministic weight of placing key on worker: FNV-1a
// over worker, a zero byte and key, passed through splitmix64's
// finalizer. FNV-1a alone carries a key's last bytes poorly into the
// high bits pick compares, so keys that differ only at their end (a
// geometry sweep's entries suffix) would cluster on one worker.
func score(worker, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(worker))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	z := h.Sum64()
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// pick returns the rendezvous winner for key among workers ("" when the
// candidate set is empty). Ties break toward the lexically-later addr,
// keeping the choice deterministic across coordinators.
func pick(workers []string, key string) string {
	var (
		best      string
		bestScore uint64
		found     bool
	)
	for _, w := range workers {
		s := score(w, key)
		if !found || s > bestScore || (s == bestScore && w > best) {
			best, bestScore, found = w, s, true
		}
	}
	return best
}
