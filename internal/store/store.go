// Package store is msrd's persistent result store: a disk-backed map
// from a spec's canonical key (sim.Spec.CanonicalKey) to its completed
// wire result, so warm-sweep speedups survive daemon restarts and cached
// simulations become durable, shareable artifacts.
//
// It is a JSON codec over a disk-only ckpt.Store, which owns the layout,
// the checksummed envelope, verification, the byte-bounded LRU and the
// write-behind queue. The result store has no memory tier of its own:
// the server's in-memory result cache is that tier.
package store

import (
	"encoding/json"
	"io"
	"log/slog"

	"mssr/internal/api"
	"mssr/internal/ckpt"
)

// Store persists wire results by canonical key. All methods are safe for
// concurrent use.
type Store struct {
	blobs *ckpt.Store
	log   *slog.Logger
}

// Open loads (or creates) a store rooted at dir, bounded to maxBytes of
// entry files on disk (<= 0 = unbounded). Entries that fail verification
// are counted as corrupt and removed; see ckpt.Open.
func Open(dir string, maxBytes int64, logger *slog.Logger) (*Store, error) {
	blobs, err := ckpt.Open(dir, 0, maxBytes, logger)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	return &Store{blobs: blobs, log: logger}, nil
}

// Get returns the stored result for the canonical key. A corrupt entry
// is a miss (counted and removed by the blob store), and so is a
// checksum-valid payload that does not decode as a result, which is
// warn-logged.
func (s *Store) Get(key string) (api.Result, bool) {
	b, ok := s.blobs.Get(key)
	if !ok {
		return api.Result{}, false
	}
	var res api.Result
	if err := json.Unmarshal(b, &res); err != nil {
		s.log.Warn("store: undecodable result", "key", key, "error", err.Error())
		return api.Result{}, false
	}
	return res, true
}

// PutAsync queues a write-behind store of the result. Results already on
// disk are skipped (a key's result is deterministic, so rewriting is
// pointless); a full queue drops the write and counts it rather than
// blocking the caller.
func (s *Store) PutAsync(key string, res api.Result) {
	if s.blobs.Contains(key) {
		return
	}
	b, err := json.Marshal(res)
	if err != nil {
		s.log.Warn("store: unencodable result", "key", key, "error", err.Error())
		return
	}
	s.blobs.Put(key, b)
}

// Flush blocks until every PutAsync accepted before the call has been
// written. A no-op on a closed store.
func (s *Store) Flush() { s.blobs.Flush() }

// Close flushes the write-behind queue and stops the writer. Further
// PutAsync calls are dropped.
func (s *Store) Close() { s.blobs.Close() }

// Len returns the number of results on disk.
func (s *Store) Len() int { return s.blobs.DiskLen() }

// Size returns the total bytes of result files on disk.
func (s *Store) Size() int64 { return s.blobs.DiskSize() }

// Counters snapshots the blob store's activity counters.
func (s *Store) Counters() ckpt.Counters { return s.blobs.Counters() }
