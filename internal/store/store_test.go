package store_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mssr/internal/api"
	"mssr/internal/obs"
	"mssr/internal/stats"
	"mssr/internal/store"
)

func result(key string, cycles uint64) api.Result {
	return api.Result{
		Index:    -1,
		Key:      key,
		CacheKey: key,
		Source:   api.SourceRun,
		Program:  "prog",
		Engine:   "rgid",
		Cycles:   cycles,
		Retired:  cycles / 2,
		IPC:      0.5,
		MIPS:     1.25,
		Stats:    &stats.Stats{Cycles: cycles, Retired: cycles / 2, L1DHits: 7},
		Intervals: []obs.Interval{
			{Index: 0, Start: 0, End: 4096, IPC: 0.517},
			{Index: 1, Start: 4096, End: 8192, IPC: 0.733},
		},
	}
}

func open(t *testing.T, dir string, maxBytes int64) *store.Store {
	t.Helper()
	s, err := store.Open(dir, maxBytes, nil)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(s.Close)
	return s
}

// put stores one result and waits for it to reach disk.
func put(s *store.Store, key string, res api.Result) {
	s.PutAsync(key, res)
	s.Flush()
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	key := "bfs@s0/rgid-4x64+iv4096"
	want := result(key, 1000)
	put(s, key, want)
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get missed a just-stored key")
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Errorf("round trip changed the result:\nput %s\ngot %s", wb, gb)
	}
	if _, ok := s.Get("unknown/none"); ok {
		t.Error("Get hit an unknown key")
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("counters = %+v, want 1 hit, 1 miss", c)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	keys := []string{"a/none", "b/rgid-4x64", "c/ri-64s4w+check"}
	for i, k := range keys {
		put(s, k, result(k, uint64(100*(i+1))))
	}
	s.Close()

	s2 := open(t, dir, 0)
	if s2.Len() != len(keys) {
		t.Fatalf("reopened store has %d entries, want %d", s2.Len(), len(keys))
	}
	for i, k := range keys {
		got, ok := s2.Get(k)
		if !ok {
			t.Fatalf("reopened store missed %q", k)
		}
		want := result(k, uint64(100*(i+1)))
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if string(wb) != string(gb) {
			t.Errorf("%q changed across reopen:\nput %s\ngot %s", k, wb, gb)
		}
	}
	if c := s2.Counters(); c.Corrupt != 0 {
		t.Errorf("clean reopen counted %d corrupt entries", c.Corrupt)
	}
}

// entryFiles returns every stored entry file under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".ckpt") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	key := "mcf/rgid-4x64"
	put(s, key, result(key, 1000))
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("found %d entry files, want 1", len(files))
	}
	// Truncate the file mid-payload: the next read must treat the entry
	// as a miss, count the corruption and remove the file.
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	c := s.Counters()
	if c.Corrupt != 1 || c.Misses != 1 {
		t.Errorf("counters = %+v, want 1 corrupt, 1 miss", c)
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt entry file not removed")
	}
	// A subsequent write repopulates cleanly.
	put(s, key, result(key, 1000))
	if _, ok := s.Get(key); !ok {
		t.Error("re-put after corruption missed")
	}
}

func TestTamperedContentRejectedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	key := "omnetpp/dir-value-64s4w"
	put(s, key, result(key, 500))
	files := entryFiles(t, dir)
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip the stored cycle count without updating the checksum: a
	// well-formed envelope around valid JSON, with the wrong bytes.
	tampered := strings.Replace(string(b), `"cycles":500`, `"cycles":501`, 1)
	if tampered == string(b) {
		t.Fatal("tampering failed to change the file")
	}
	if err := os.WriteFile(files[0], []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := open(t, dir, 0)
	if s2.Len() != 0 {
		t.Errorf("tampered entry survived reopen (len %d)", s2.Len())
	}
	if c := s2.Counters(); c.Corrupt != 1 {
		t.Errorf("reopen counted %d corrupt entries, want 1", c.Corrupt)
	}
	if len(entryFiles(t, dir)) != 0 {
		t.Error("tampered entry file not removed at open")
	}
}

func TestSizeBoundEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	// Measure one entry's file size so the bound can be set to hold
	// exactly three.
	probe := "probe/none"
	put(s, probe, result(probe, 1))
	per := s.Size()
	s.Close()
	os.RemoveAll(dir)

	s = open(t, dir, 3*per+per/2)
	var keys []string
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("wl%d/none", i)
		keys = append(keys, k)
		put(s, k, result(k, 1))
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("store holds %d entries, want 3 under the size bound", got)
	}
	if c := s.Counters(); c.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", c.Evictions)
	}
	// The two oldest are gone, so the three newest are what remains.
	for _, k := range keys[:2] {
		if _, ok := s.Get(k); ok {
			t.Errorf("oldest entry %q survived eviction", k)
		}
	}
	// Touching the LRU tail protects it from the next eviction.
	if _, ok := s.Get(keys[2]); !ok {
		t.Fatal("expected hit")
	}
	k := "extra/none"
	put(s, k, result(k, 1))
	if _, ok := s.Get(keys[3]); ok {
		t.Error("LRU entry survived eviction after a newer entry was touched")
	}
	for _, k := range []string{keys[2], keys[4], k} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("entry %q evicted ahead of the LRU one", k)
		}
	}
}

func TestWriteBehindFlush(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("async%d/none", i)
		s.PutAsync(k, result(k, uint64(i+1)))
	}
	s.Flush()
	if got := s.Len(); got != 20 {
		t.Fatalf("after flush store holds %d entries, want 20", got)
	}
	// Re-queueing an already-stored key is a no-op, not a rewrite.
	before := entryFiles(t, dir)
	s.PutAsync("async0/none", result("async0/none", 999))
	s.Flush()
	got, ok := s.Get("async0/none")
	if !ok || got.Cycles != 1 {
		t.Errorf("PutAsync overwrote an existing entry: %+v", got)
	}
	if after := entryFiles(t, dir); len(after) != len(before) {
		t.Errorf("entry file count changed: %d -> %d", len(before), len(after))
	}
}

func TestReopenPreservesRecencyOrder(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("r%d/none", i)
		put(s, k, result(k, 1))
		// File mtimes seed the reopened LRU order; keep them distinct
		// even on coarse-mtime filesystems.
		time.Sleep(5 * time.Millisecond)
	}
	per := s.Size() / 3
	s.Close()

	// Reopen with room for only two entries: the oldest by mtime (r0)
	// must be the one evicted.
	s2 := open(t, dir, 2*per+per/2)
	if s2.Len() != 2 {
		t.Fatalf("reopened bounded store holds %d entries, want 2", s2.Len())
	}
	if _, ok := s2.Get("r0/none"); ok {
		t.Error("oldest entry survived the reopen bound")
	}
	for _, k := range []string{"r1/none", "r2/none"} {
		if _, ok := s2.Get(k); !ok {
			t.Errorf("recent entry %q lost at reopen", k)
		}
	}
}
