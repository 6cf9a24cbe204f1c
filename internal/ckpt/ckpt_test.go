package ckpt

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func blob(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestMemoryRoundTrip(t *testing.T) {
	s := NewMemory(-1)
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	want := blob(1, 100)
	s.Put("k1", want)
	got, ok := s.Get("k1")
	if !ok || string(got) != string(want) {
		t.Fatalf("Get after Put: ok=%v blob mismatch=%v", ok, string(got) != string(want))
	}
	if !s.Contains("k1") || s.Contains("k2") {
		t.Fatal("Contains wrong")
	}
	if s.Len() != 1 || s.Size() != 100 {
		t.Fatalf("Len=%d Size=%d, want 1/100", s.Len(), s.Size())
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.BytesRead != 100 || c.BytesWritten != 100 {
		t.Fatalf("counters %+v", c)
	}
	// Overwrite with a different size adjusts accounting.
	s.Put("k1", blob(2, 40))
	if s.Len() != 1 || s.Size() != 40 {
		t.Fatalf("after overwrite Len=%d Size=%d, want 1/40", s.Len(), s.Size())
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	s := NewMemory(250) // room for two 100-byte blobs, not three
	s.Put("a", blob(1, 100))
	s.Put("b", blob(2, 100))
	s.Get("a") // make "b" the LRU
	s.Put("c", blob(3, 100))
	if s.Contains("b") {
		t.Fatal("LRU entry b survived eviction")
	}
	if !s.Contains("a") || !s.Contains("c") {
		t.Fatal("recently used entries evicted")
	}
	if got := s.Counters().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	// A blob larger than the bound is still kept (never evict the entry
	// just inserted), everything else goes.
	s.Put("huge", blob(4, 400))
	if !s.Contains("huge") {
		t.Fatal("oversized insert was evicted immediately")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after oversized insert, want 1", s.Len())
	}
}

func TestDiskPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("mcf@s2+ff4505+dw287#%d", i)
		s.Put(keys[i], blob(byte(i), 64+i))
	}
	s.Close()
	if got := s.DiskLen(); got != 20 {
		t.Fatalf("DiskLen after Close = %d, want 20", got)
	}

	// A fresh store over the same directory serves every blob (warm
	// restart), promoting disk hits into memory.
	s2, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DiskLen(); got != 20 {
		t.Fatalf("reloaded DiskLen = %d, want 20", got)
	}
	// Open indexes each entry at its file size, as the write did.
	if got, want := s2.DiskSize(), s.DiskSize(); got != want {
		t.Fatalf("reloaded DiskSize = %d, want %d as written", got, want)
	}
	if s2.Len() != 0 {
		t.Fatalf("reloaded memory tier holds %d entries, want 0", s2.Len())
	}
	for i, k := range keys {
		got, ok := s2.Get(k)
		if !ok || string(got) != string(blob(byte(i), 64+i)) {
			t.Fatalf("reloaded Get(%q): ok=%v", k, ok)
		}
	}
	if s2.Len() != 20 {
		t.Fatalf("disk hits not promoted: memory Len = %d", s2.Len())
	}
	c := s2.Counters()
	if c.Hits != 20 || c.Misses != 0 || c.Corrupt != 0 {
		t.Fatalf("reloaded counters %+v", c)
	}
}

func TestDiskCorruptionDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("good", blob(1, 64))
	s.Put("bad", blob(2, 64))
	s.Close()

	// Flip a payload byte in "bad"'s file.
	var badPath string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, fileExt) {
			if _, blob, e := readEnvelope(path); e == nil && blob[0] == 2 {
				badPath = path
			}
		}
		return nil
	})
	if badPath == "" {
		t.Fatal("could not locate bad's checkpoint file")
	}
	b, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(badPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Counters().Corrupt; got != 1 {
		t.Fatalf("Corrupt = %d after reload over tampered file, want 1", got)
	}
	if s2.Contains("bad") {
		t.Fatal("corrupt entry still indexed")
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatal("corrupt file not removed")
	}
	if _, ok := s2.Get("good"); !ok {
		t.Fatal("intact entry lost")
	}
}

func TestDiskBoundEvicts(t *testing.T) {
	dir := t.TempDir()
	// Envelope overhead is ~90 bytes on top of each 100-byte blob; a
	// 450-byte bound keeps about two entries.
	s, err := Open(dir, -1, 450, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("k%d", i), blob(byte(i), 100))
	}
	s.Flush()
	if got := s.DiskSize(); got > 450 {
		t.Fatalf("DiskSize = %d exceeds 450-byte bound", got)
	}
	if s.DiskLen() >= 5 {
		t.Fatalf("DiskLen = %d, expected evictions", s.DiskLen())
	}
	if s.Counters().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	// Evicted files are really gone.
	n := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, fileExt) {
			n++
		}
		return nil
	})
	if n != s.DiskLen() {
		t.Fatalf("%d files on disk, index holds %d", n, s.DiskLen())
	}
}

func TestFlushBarrier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%d", i), blob(byte(i), 32))
	}
	s.Flush()
	if got := s.DiskLen(); got != 50 {
		t.Fatalf("DiskLen = %d after Flush, want 50", got)
	}
}

func TestCloseIdempotentAndGetAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", blob(9, 16))
	s.Close()
	s.Close()
	s.Flush() // no-op, must not hang
	if _, ok := s.Get("k"); !ok {
		t.Fatal("Get after Close lost the entry")
	}
	s.Put("late", blob(1, 16)) // memory insert still works, persist dropped
	if _, ok := s.Get("late"); !ok {
		t.Fatal("post-Close Put not visible in memory tier")
	}
	if s.Counters().Dropped == 0 {
		t.Fatal("post-Close Put persist not counted as dropped")
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%20)
				s.Put(k, blob(byte(g), 64))
				if got, ok := s.Get(k); ok && got[0] != byte(g) {
					t.Errorf("cross-goroutine blob under %q", k)
				}
				s.Contains(k)
			}
		}(g)
	}
	wg.Wait()
	s.Flush()
}

// TestGetZeroCopy pins the warm-restore property: a memory-tier Get
// must not copy the blob.
func TestGetZeroCopy(t *testing.T) {
	s := NewMemory(-1)
	s.Put("k", blob(1, 1<<16))
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get("k"); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Errorf("memory-tier Get allocates %.1f times", allocs)
	}
}

// TestNoMemoryTier pins the 0 memory bound: Put and Get go straight to
// disk, nothing is held or evicted in memory.
func TestNoMemoryTier(t *testing.T) {
	s, err := Open(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("a", blob(1, 100))
	s.Put("b", blob(2, 100))
	s.Flush()
	if got, ok := s.Get("a"); !ok || string(got) != string(blob(1, 100)) {
		t.Fatalf("disk Get(a): ok=%v", ok)
	}
	if s.Len() != 0 || s.Size() != 0 {
		t.Fatalf("memory tier holds Len=%d Size=%d, want none", s.Len(), s.Size())
	}
	if s.DiskLen() != 2 {
		t.Fatalf("DiskLen = %d, want 2", s.DiskLen())
	}
	if c := s.Counters(); c.Evictions != 0 || c.Hits != 1 {
		t.Fatalf("counters %+v, want 1 hit and no evictions", c)
	}
}

// TestVanishedFileIsAMiss pins that an indexed entry whose file is gone
// by the time Get reads it (evicted by a concurrent write's disk bound,
// or removed by hand) is a plain miss: not corruption, not logged.
func TestVanishedFileIsAMiss(t *testing.T) {
	var logged bytes.Buffer
	s, err := Open(t.TempDir(), 1, 0, slog.New(slog.NewTextHandler(&logged, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("a", blob(1, 100))
	s.Put("b", blob(2, 100)) // evicts a from the 1-byte memory tier
	s.Flush()
	if err := os.Remove(s.path("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get served a vanished entry")
	}
	if c := s.Counters(); c.Corrupt != 0 || c.Misses != 1 {
		t.Fatalf("counters %+v, want 1 miss and no corruption", c)
	}
	if logged.Len() != 0 {
		t.Fatalf("vanished entry logged: %s", logged.String())
	}
	if s.DiskLen() != 1 || s.Contains("a") {
		t.Fatalf("vanished entry still indexed (DiskLen %d)", s.DiskLen())
	}
}

// TestMemoryHitRefreshesDiskRecency pins that a memory-tier hit also
// moves the key to the front of the disk LRU, so the most-used entries
// are not the first the disk bound evicts.
func TestMemoryHitRefreshesDiskRecency(t *testing.T) {
	per := int64(len(encodeEnvelope("a", blob(1, 100))))
	s, err := Open(t.TempDir(), -1, 2*per+per/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("a", blob(1, 100))
	s.Flush()
	s.Put("b", blob(2, 100))
	s.Flush()
	if _, ok := s.Get("a"); !ok {
		t.Fatal("memory miss")
	}
	s.Put("c", blob(3, 100))
	s.Flush()
	if _, err := os.Stat(s.path("a")); err != nil {
		t.Errorf("recently read entry a evicted from disk: %v", err)
	}
	if _, err := os.Stat(s.path("b")); !os.IsNotExist(err) {
		t.Errorf("least recently used entry b kept on disk (stat err %v)", err)
	}
	if got := s.Counters().Evictions; got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
}

// TestWriteFailureCounted plants a directory where a key's entry file
// goes, so the write's rename fails: the failure is counted, leaves no
// temp file and no index entry, and later writes still succeed.
func TestWriteFailureCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.MkdirAll(s.path("bad"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.Put("bad", blob(1, 64))
	s.Flush()
	if got := s.Counters().WriteErrors; got != 1 {
		t.Fatalf("WriteErrors = %d, want 1", got)
	}
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			t.Errorf("failed write left %s behind", path)
		}
		return nil
	})
	if s.Contains("bad") || s.DiskLen() != 0 {
		t.Fatalf("failed write indexed (DiskLen %d)", s.DiskLen())
	}
	s.Put("good", blob(2, 64))
	s.Flush()
	if _, ok := s.Get("good"); !ok || s.DiskLen() != 1 {
		t.Fatalf("write after a failed one: ok=%v DiskLen=%d", ok, s.DiskLen())
	}
	if got := s.Counters().WriteErrors; got != 1 {
		t.Fatalf("WriteErrors = %d after a good write, want 1", got)
	}
}

// FuzzDecodeEnvelope feeds arbitrary bytes to the one envelope decoder.
// Every input either fails or decodes to a key and payload that encode
// back to exactly the input; none panics.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		key, payload, err := decodeEnvelope(b)
		if err != nil {
			return
		}
		if again := encodeEnvelope(key, payload); !bytes.Equal(again, b) {
			t.Fatalf("accepted envelope does not re-encode to itself:\n in %x\nout %x", b, again)
		}
	})
}

// TestDeleteDropsBothTiers: Delete removes a key from memory and disk,
// so neither a Get nor a reopened store finds it, and a later Put of the
// key persists the new blob.
func TestDeleteDropsBothTiers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", blob(1, 64))
	s.Put("other", blob(2, 64))
	s.Flush()
	s.Delete("k")
	if _, ok := s.Get("k"); ok || s.Contains("k") {
		t.Fatal("deleted key still served")
	}
	if s.Len() != 1 || s.Size() != 64 || s.DiskLen() != 1 {
		t.Fatalf("after Delete: Len %d, Size %d, DiskLen %d; want 1, 64, 1", s.Len(), s.Size(), s.DiskLen())
	}
	s.Close()

	s, err = Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains("k") || !s.Contains("other") {
		t.Fatal("reopened store disagrees with the Delete")
	}
	s.Put("k", blob(3, 32))
	s.Close()
	s, err = Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, ok := s.Get("k"); !ok || string(got) != string(blob(3, 32)) {
		t.Fatal("a Put after Delete did not persist")
	}
}
