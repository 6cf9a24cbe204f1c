// Package ckpt is the repository's one content-addressed blob store: a
// map from string keys to immutable byte blobs, held in a bounded
// in-memory LRU over an optional disk tier. It stores three kinds of
// blob, each under its own key space: serialized architectural states
// (emu.Emulator.AppendBinary, which records only the memory words that
// differ from the program's load image) keyed by a spec's
// sim.Spec.CheckpointKey plus a position suffix, the JSON phase profiles
// of sim's phase selection, and msrd's completed wire results, which
// internal/store encodes and decodes over a disk-only Store. Any sweep
// over the same program and fidelity geometry — every config of a batch,
// every re-run, every fleet worker the spec rendezvous-homes to —
// restores a boundary in O(changed state) instead of re-emulating
// O(instructions) of functional prefix.
//
// The memory tier is an LRU bounded by total blob bytes; Get returns the
// stored slice without copying (blobs are immutable by contract). A
// memory bound of 0 means no memory tier at all. On disk, each blob lives
// in its own file under a two-level fanout of the key's SHA-256, written
// temp-file-then-rename so readers never observe a partial write, framed
// in a self-describing envelope (magic "msrK", version, key, FNV-1a
// payload checksum) so Open can rebuild the index without a manifest and
// any corruption is counted, logged and deleted rather than served.
// Writes go through a bounded write-behind queue drained by a single
// writer goroutine: a Put never blocks its caller, and a full queue drops
// the write (counted) instead of stalling.
package ckpt

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMemBytes is the memory bound of the checkpoint stores the server
// and sim.Runner create for themselves and of msrd -ckpt: enough for the
// checkpoint sets of several standard-scale sweeps. The benchmark's
// phase-selected sweep of the 11 SPEC-like programs at scale 1 leaves
// 1,055 entries in 5.1 MB.
const DefaultMemBytes = 256 << 20

const (
	envelopeVersion = 1
	fileExt         = ".ckpt"
	tmpPattern      = "ckpt-*.tmp"
)

var envelopeMagic = [4]byte{'m', 's', 'r', 'K'}

// Counters is a snapshot of the store's activity counters.
type Counters struct {
	// Hits and Misses count Get outcomes across both tiers (a disk hit
	// promoted to memory is one hit).
	Hits, Misses uint64
	// BytesRead and BytesWritten total the blob bytes served by Get and
	// accepted by Put.
	BytesRead, BytesWritten uint64
	// Evictions counts blobs dropped by either tier's size bound.
	Evictions uint64
	// Corrupt counts disk entries dropped because their envelope failed
	// verification (at Open or at read time).
	Corrupt uint64
	// Dropped counts disk writes discarded because the write-behind
	// queue was full or the store was closed.
	Dropped uint64
	// WriteErrors counts disk write failures (disk full, permissions).
	WriteErrors uint64
}

type entry struct {
	key  string
	blob []byte // nil for disk-index entries not resident in memory
	size int64
}

// Store is a bounded content-addressed blob store, safe for concurrent
// use.
type Store struct {
	dir      string // "" = memory-only
	memBytes int64  // < 0 = unbounded, 0 = no memory tier
	dskBytes int64
	log      *slog.Logger

	mu      sync.Mutex
	order   *list.List // memory tier LRU; front = most recent
	entries map[string]*list.Element
	memSize int64
	// disk tier index (nil when memory-only)
	dorder   *list.List
	dentries map[string]*list.Element
	dskSize  int64

	hits, misses, evictions, corrupt atomic.Uint64
	bytesRead, bytesWritten          atomic.Uint64
	dropped, writeErrors             atomic.Uint64

	qmu       sync.Mutex
	qclosed   bool
	wq        chan writeReq
	writerWG  sync.WaitGroup
	closeOnce sync.Once
}

type writeReq struct {
	key   string
	blob  []byte
	flush chan struct{} // non-nil: a flush barrier, not a write
}

// NewMemory returns a memory-only store bounded to maxBytes of blobs
// (< 0 = unbounded).
func NewMemory(maxBytes int64) *Store {
	s, _ := open("", maxBytes, 0, nil)
	return s
}

// Open loads (or creates) a disk-backed store rooted at dir, holding up
// to memBytes of blobs in memory (0 = no memory tier, < 0 = unbounded)
// and diskBytes on disk (<= 0 = unbounded). The disk index is rebuilt by
// walking the fanout tree: entries failing verification are counted as
// corrupt and removed, stale temp files are cleaned up, and the disk LRU
// order is seeded from file mtimes.
func Open(dir string, memBytes, diskBytes int64, logger *slog.Logger) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: Open needs a directory (use NewMemory)")
	}
	return open(dir, memBytes, diskBytes, logger)
}

func open(dir string, memBytes, diskBytes int64, logger *slog.Logger) (*Store, error) {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	s := &Store{
		dir:      dir,
		memBytes: memBytes,
		dskBytes: diskBytes,
		log:      logger,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		s.dorder = list.New()
		s.dentries = make(map[string]*list.Element)
		if err := s.load(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.enforceDiskBoundLocked(nil)
		s.mu.Unlock()
		s.wq = make(chan writeReq, 256)
		s.writerWG.Add(1)
		go s.writer()
	}
	return s, nil
}

// load walks the fanout tree and rebuilds the disk index.
func (s *Store) load() error {
	type found struct {
		e     entry
		mtime int64
	}
	var all []found
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".tmp") {
			_ = os.Remove(path) // interrupted write; nothing references it
			return nil
		}
		if !strings.HasSuffix(path, fileExt) {
			return nil
		}
		b, verr := os.ReadFile(path)
		var key string
		if verr == nil {
			key, _, verr = decodeEnvelope(b)
		}
		if verr != nil || s.path(key) != path {
			s.corrupt.Add(1)
			s.log.Warn("ckpt: dropping corrupt entry", "path", path, "key", key, "error", fmt.Sprint(verr))
			_ = os.Remove(path)
			return nil
		}
		info, ierr := d.Info()
		var mtime int64
		if ierr == nil {
			mtime = info.ModTime().UnixNano()
		}
		all = append(all, found{entry{key: key, size: int64(len(b))}, mtime})
		return nil
	})
	if err != nil {
		return fmt.Errorf("ckpt: indexing %s: %w", s.dir, err)
	}
	// Oldest first, so the most recently written entries end up at the
	// front of the disk LRU order.
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	for i := range all {
		e := all[i].e
		s.dentries[e.key] = s.dorder.PushFront(&entry{key: e.key, size: e.size})
		s.dskSize += e.size
	}
	return nil
}

// path maps a key onto its fanout file path.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, h[:2], h[2:4], h+fileExt)
}

// encodeEnvelope frames a blob for disk: magic, version, key, FNV-1a
// payload checksum, payload length, payload.
func encodeEnvelope(key string, blob []byte) []byte {
	h := fnv.New64a()
	h.Write(blob)
	b := make([]byte, 0, 4+4+4+len(key)+8+8+len(blob))
	b = append(b, envelopeMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, envelopeVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, h.Sum64())
	b = binary.LittleEndian.AppendUint64(b, uint64(len(blob)))
	return append(b, blob...)
}

// readEnvelope reads and verifies one entry file, returning its key and
// payload. A missing file is reported as an fs.ErrNotExist error.
func readEnvelope(path string) (string, []byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	return decodeEnvelope(b)
}

// decodeEnvelope verifies one envelope and returns its key and payload
// (a subslice of b). Any input it accepts is exactly what encodeEnvelope
// produces for the returned key and payload.
func decodeEnvelope(b []byte) (string, []byte, error) {
	const hdr = 4 + 4 + 4
	if len(b) < hdr {
		return "", nil, fmt.Errorf("truncated envelope (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != envelopeMagic {
		return "", nil, fmt.Errorf("bad envelope magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != envelopeVersion {
		return "", nil, fmt.Errorf("unknown envelope version %d", v)
	}
	klen := uint64(binary.LittleEndian.Uint32(b[8:]))
	if uint64(len(b)-hdr) < klen+16 {
		return "", nil, fmt.Errorf("truncated envelope key")
	}
	key := string(b[hdr : hdr+klen])
	rest := b[hdr+klen:]
	sum := binary.LittleEndian.Uint64(rest)
	plen := binary.LittleEndian.Uint64(rest[8:])
	blob := rest[16:]
	if uint64(len(blob)) != plen {
		return key, nil, fmt.Errorf("payload length %d, envelope declares %d", len(blob), plen)
	}
	h := fnv.New64a()
	h.Write(blob)
	if h.Sum64() != sum {
		return key, nil, fmt.Errorf("payload checksum mismatch")
	}
	return key, blob, nil
}

// Get returns the blob stored under key, or (nil, false). The returned
// slice is the store's copy and must be treated as read-only. A hit in
// either tier moves the key to the front of both LRU orders it is in; a
// disk hit is promoted into the memory tier and also persisted to the
// file's mtime, so the order a restart rebuilds reflects disk reads and
// writes only. A corrupt disk entry is counted, logged and removed (a
// miss); an entry whose file has vanished — evicted by a concurrent
// write, or removed by hand — is a plain miss.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		if del, ok := s.dentries[key]; ok {
			s.dorder.MoveToFront(del)
		}
		blob := el.Value.(*entry).blob
		s.mu.Unlock()
		s.hits.Add(1)
		s.bytesRead.Add(uint64(len(blob)))
		return blob, true
	}
	del, onDisk := s.dentries[key]
	s.mu.Unlock()
	if !onDisk {
		s.misses.Add(1)
		return nil, false
	}
	path := s.path(key)
	gotKey, blob, err := readEnvelope(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.dropDisk(key, del)
		s.misses.Add(1)
		return nil, false
	}
	if err == nil && gotKey != key {
		err = fmt.Errorf("envelope key %q does not match requested key", gotKey)
	}
	if err != nil {
		s.dropDisk(key, del)
		_ = os.Remove(path)
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.log.Warn("ckpt: corrupt entry read", "path", path, "key", key, "error", err.Error())
		return nil, false
	}
	s.mu.Lock()
	if cur, ok := s.dentries[key]; ok {
		s.dorder.MoveToFront(cur)
	}
	s.insertMemLocked(key, blob)
	s.mu.Unlock()
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(blob)))
	// Persist the recency so a restart's mtime-seeded LRU order stays
	// close to the live one. Best-effort: a failure only skews eviction.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return blob, true
}

// dropDisk removes key's disk index entry if it is still el, the one a
// failed read looked up: a concurrent write may have replaced it since.
func (s *Store) dropDisk(key string, el *list.Element) {
	s.mu.Lock()
	if cur, ok := s.dentries[key]; ok && cur == el {
		s.removeDiskLocked(cur)
	}
	s.mu.Unlock()
}

// Contains reports whether key is present in either tier, without
// touching recency or counters.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return true
	}
	_, ok := s.dentries[key]
	return ok
}

// Delete removes key from both tiers and its file from disk. A later Put
// of the key writes it to disk afresh.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.order.Remove(el)
		delete(s.entries, key)
		s.memSize -= el.Value.(*entry).size
	}
	if el, ok := s.dentries[key]; ok {
		s.removeDiskLocked(el)
		_ = os.Remove(s.path(key))
	}
}

// Put stores blob under key in the memory tier (if there is one) and,
// when a disk tier exists, queues a write-behind persist. The store keeps
// the slice: the caller must not mutate it afterwards (checkpoint
// captures hand over a freshly encoded buffer).
func (s *Store) Put(key string, blob []byte) {
	s.mu.Lock()
	s.insertMemLocked(key, blob)
	_, alreadyOnDisk := s.dentries[key]
	s.mu.Unlock()
	s.bytesWritten.Add(uint64(len(blob)))
	if s.dir == "" || alreadyOnDisk {
		// Blob contents are deterministic per key; rewriting an entry
		// already on disk is pure churn.
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.qclosed {
		s.dropped.Add(1)
		return
	}
	select {
	case s.wq <- writeReq{key: key, blob: blob}:
	default:
		s.dropped.Add(1)
	}
}

// insertMemLocked installs (or refreshes) a memory-tier entry and
// enforces the memory bound. It does nothing when there is no memory
// tier.
func (s *Store) insertMemLocked(key string, blob []byte) {
	if s.memBytes == 0 {
		return
	}
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry)
		s.memSize += int64(len(blob)) - e.size
		e.blob, e.size = blob, int64(len(blob))
		s.order.MoveToFront(el)
	} else {
		s.entries[key] = s.order.PushFront(&entry{key: key, blob: blob, size: int64(len(blob))})
		s.memSize += int64(len(blob))
	}
	if s.memBytes < 0 {
		return
	}
	keep := s.entries[key]
	for s.memSize > s.memBytes && s.order.Len() > 0 {
		oldest := s.order.Back()
		if oldest == keep {
			break
		}
		e := oldest.Value.(*entry)
		s.order.Remove(oldest)
		delete(s.entries, e.key)
		s.memSize -= e.size
		s.evictions.Add(1)
	}
}

// writeDisk performs one durable write: envelope, temp file, rename.
func (s *Store) writeDisk(key string, blob []byte) {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.writeErrors.Add(1)
		s.log.Warn("ckpt: write-behind failed", "path", path, "key", key, "error", err.Error())
		return
	}
	b := encodeEnvelope(key, blob)
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err == nil {
		if _, werr := tmp.Write(b); werr != nil {
			err = werr
		}
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
		if err != nil {
			_ = os.Remove(tmp.Name())
		}
	}
	if err != nil {
		s.writeErrors.Add(1)
		s.log.Warn("ckpt: write-behind failed", "path", path, "key", key, "error", err.Error())
		return
	}
	s.mu.Lock()
	if el, ok := s.dentries[key]; ok {
		e := el.Value.(*entry)
		s.dskSize += int64(len(b)) - e.size
		e.size = int64(len(b))
		s.dorder.MoveToFront(el)
	} else {
		s.dentries[key] = s.dorder.PushFront(&entry{key: key, size: int64(len(b))})
		s.dskSize += int64(len(b))
	}
	s.enforceDiskBoundLocked(s.dentries[key])
	s.mu.Unlock()
}

// enforceDiskBoundLocked evicts least-recently-used disk entries until
// the size bound holds, never evicting keep.
func (s *Store) enforceDiskBoundLocked(keep *list.Element) {
	if s.dskBytes <= 0 || s.dorder == nil {
		return
	}
	for s.dskSize > s.dskBytes && s.dorder.Len() > 0 {
		oldest := s.dorder.Back()
		if oldest == keep {
			break
		}
		e := oldest.Value.(*entry)
		s.removeDiskLocked(oldest)
		_ = os.Remove(s.path(e.key))
		s.evictions.Add(1)
	}
}

// removeDiskLocked drops one entry from the disk index (not the file).
func (s *Store) removeDiskLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.dorder.Remove(el)
	delete(s.dentries, e.key)
	s.dskSize -= e.size
}

// writer is the single write-behind goroutine.
func (s *Store) writer() {
	defer s.writerWG.Done()
	for req := range s.wq {
		if req.flush != nil {
			close(req.flush)
			continue
		}
		s.writeDisk(req.key, req.blob)
	}
}

// Flush blocks until every Put accepted before the call has been
// written to disk. A no-op on a memory-only or closed store.
func (s *Store) Flush() {
	if s.dir == "" {
		return
	}
	done := make(chan struct{})
	s.qmu.Lock()
	if s.qclosed {
		s.qmu.Unlock()
		return
	}
	s.wq <- writeReq{flush: done}
	s.qmu.Unlock()
	<-done
}

// Close flushes the write-behind queue and stops the writer. Further
// Put persists and Flushes are no-ops; Get keeps serving both tiers.
func (s *Store) Close() {
	if s.dir == "" {
		return
	}
	s.closeOnce.Do(func() {
		s.Flush()
		s.qmu.Lock()
		s.qclosed = true
		close(s.wq)
		s.qmu.Unlock()
		s.writerWG.Wait()
	})
}

// Len returns the number of memory-resident blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Size returns the total bytes of memory-resident blobs.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memSize
}

// DiskLen returns the number of entries on disk (0 when memory-only).
func (s *Store) DiskLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dorder == nil {
		return 0
	}
	return s.dorder.Len()
}

// DiskSize returns the total bytes of entry files on disk.
func (s *Store) DiskSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dskSize
}

// Counters snapshots the activity counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Evictions:    s.evictions.Load(),
		Corrupt:      s.corrupt.Load(),
		Dropped:      s.dropped.Load(),
		WriteErrors:  s.writeErrors.Load(),
	}
}
