package emu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"mssr/internal/asm"
	"mssr/internal/isa"
	"mssr/internal/randprog"
)

// TestArchStateBinaryRoundTrip is the serialize/restore property test
// behind the checkpoint format: for random programs whose data segments
// span one or two pages, paused at random points, encode -> restore must
// reproduce the exact architectural state, even into an emulator that
// has since run elsewhere, and resuming from it must finish
// bit-identically to the uninterrupted emulation.
func TestArchStateBinaryRoundTrip(t *testing.T) {
	cfg := randprog.DefaultConfig()
	cfg.MaxDepth = 4
	cfg.MaxStmts = 8
	for seed := int64(0); seed < 10; seed++ {
		cfg.DataWords = 64 << (seed % 2 * 4) // 64 or 1024 words
		p := randprog.Generate(seed, cfg)
		if len(p.Data) == 0 {
			t.Fatalf("seed %d: program has no data segment", seed)
		}
		ref := New(p)
		ref.FastForward(1<<40, nil)
		want := ref.Result()
		total := ref.Retired

		resumed := New(p)
		for _, cut := range []uint64{0, 1, total / 3, total / 2, total - 1, total} {
			src := New(p)
			src.FastForward(cut, nil)
			enc := src.AppendBinary(nil)
			// Deterministic encoding: equal states encode byte-identically.
			if enc2 := src.AppendBinary(nil); !bytes.Equal(enc2, enc) {
				t.Fatalf("seed %d cut %d: re-encoding the same state differs", seed, cut)
			}
			if err := resumed.RestoreBinary(enc); err != nil {
				t.Fatalf("seed %d cut %d: RestoreBinary: %v", seed, cut, err)
			}
			if !sameState(resumed, src) || resumed.Mem.Hash() != src.Mem.Hash() {
				t.Fatalf("seed %d cut %d: restored state differs", seed, cut)
			}
			checkLive(t, "restored", resumed.Mem)
			if got := resumed.AppendBinary(nil); !bytes.Equal(got, enc) {
				t.Fatalf("seed %d cut %d: restored state re-encodes differently", seed, cut)
			}
			resumed.FastForward(1<<40, nil)
			if got := resumed.Result(); got != want {
				t.Fatalf("seed %d cut %d: resumed run diverged:\n got %+v\nwant %+v", seed, cut, got, want)
			}
		}
	}
}

// TestAppendBinaryRecordsChangedPages pins what a checkpoint records:
// the pages whose words differ from the program's load image, each as a
// record of only the words that differ (72 bytes plus 8 per word), an
// image word zeroed since load as a masked zero, and nothing else.
func TestAppendBinaryRecordsChangedPages(t *testing.T) {
	p := imaged()
	every := make([]Word, pageWords) // every word of page 0x30
	for i := range every {
		every[i] = Word{0x30000 + 8*uint64(i), uint64(i) + 1}
	}
	for name, c := range map[string]struct {
		writes []Word
		pages  []uint64
		bytes  int // of the page records
	}{
		"not run":               {nil, nil, 0},
		"one data word written": {[]Word{{0x1ff8, 70}}, []uint64{0x1}, 80},
		"image word rewritten":  {[]Word{{0x9000, 1}, {0x9000, 9}}, nil, 0},
		"image page zeroed":     {[]Word{{0x2000, 0}}, []uint64{0x2}, 80},
		"page outside image":    {[]Word{{0x20000, 5}}, []uint64{0x20}, 80},
		"page zeroed again":     {[]Word{{0x20000, 5}, {0x20000, 0}}, nil, 0},
		"two words, two pages":  {[]Word{{0x1000, 1}, {0x9ff8, 2}}, []uint64{0x1, 0x9}, 160},
		"every word of a page":  {every, []uint64{0x30}, 4168},
	} {
		e := New(p)
		for _, w := range c.writes {
			e.Mem.Write(w.Addr, w.Val)
		}
		enc := e.AppendBinary(nil)
		if got := records(enc); !slices.Equal(got, c.pages) {
			t.Errorf("%s: records pages %#x, want %#x", name, got, c.pages)
		}
		if len(enc) != stateHeaderBytes+c.bytes+stateSumBytes {
			t.Errorf("%s: %d bytes hold %d bytes of records, want %d", name, len(enc), len(enc)-stateHeaderBytes-stateSumBytes, c.bytes)
		}
		if cap(enc) != len(enc) {
			t.Errorf("%s: a fresh encoding has capacity %d for %d bytes", name, cap(enc), len(enc))
		}
		dst := New(p)
		dst.FastForward(1, nil)
		dst.Mem.Write(0x2000, 80) // dirty the image before restoring
		if err := dst.RestoreBinary(enc); err != nil {
			t.Fatalf("%s: RestoreBinary: %v", name, err)
		}
		checkLive(t, name, dst.Mem)
		if !sameState(dst, e) || !bytes.Equal(dst.AppendBinary(nil), enc) {
			t.Errorf("%s: restored memory %v, want %v", name, dst.Mem.Snapshot(), e.Mem.Snapshot())
		}
	}
	e := New(p)
	e.Mem.Write(0x2000, 0)
	_, recs := decode(e.AppendBinary(nil))
	if want := (pageRecord{pn: 0x2, mask: [maskWords]uint64{1}, words: []uint64{0}}); !reflect.DeepEqual(recs, []pageRecord{want}) {
		t.Errorf("a zeroed image word records %+v, want %+v", recs, want)
	}
}

// TestArchStateBinaryRejectsCorruption: every framing or content fault
// must fail decoding with ErrCorruptState, never decode garbage.
func TestArchStateBinaryRejectsCorruption(t *testing.T) {
	p := randprog.Generate(3, randprog.DefaultConfig())
	e := New(p)
	e.FastForward(500, nil)
	enc := e.AppendBinary(nil)
	if len(records(enc)) == 0 {
		t.Fatal("the encoding holds no page record to corrupt")
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), enc...))
		if err := New(p).RestoreBinary(b); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: err = %v, want ErrCorruptState", name, err)
		}
	}
	mutate("truncated header", func(b []byte) []byte { return b[:10] })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(b)-9] })
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("unknown version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("version 1", func(b []byte) []byte { b[4] = 1; return b })
	mutate("version 2", func(b []byte) []byte { b[4] = 2; return b })
	mutate("flipped register bit", func(b []byte) []byte { b[40] ^= 1; return b })
	mutate("flipped page word", func(b []byte) []byte { b[len(b)-20] ^= 1; return b })
	mutate("flipped checksum", func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
}

// TestRestoreBinarySteadyStateZeroAllocs guards the warm restore path:
// decoding a constant-footprint checkpoint into an emulator whose page
// pool already holds the footprint must not allocate, so checkpoint-warm
// sweeps keep the simulator's allocation discipline.
func TestRestoreBinarySteadyStateZeroAllocs(t *testing.T) {
	p := randprog.Generate(7, randprog.DefaultConfig())
	e := New(p)
	e.FastForward(2000, nil)
	enc := e.AppendBinary(nil)

	dst := New(p)
	if err := dst.RestoreBinary(enc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := dst.RestoreBinary(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RestoreBinary allocates %.1f times per restore", allocs)
	}
}

// BenchmarkArchStateEncode measures checkpoint capture: one encode of a
// mid-run architectural state into a reused buffer.
func BenchmarkArchStateEncode(b *testing.B) {
	p := randprog.Generate(5, randprog.DefaultConfig())
	e := New(p)
	e.FastForward(1<<16, nil)
	buf := e.AppendBinary(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.AppendBinary(buf[:0])
	}
}

// BenchmarkArchStateRestore measures the emulator-side restore: one
// RestoreBinary into a warm emulator (pooled pages, zero allocations).
func BenchmarkArchStateRestore(b *testing.B) {
	p := randprog.Generate(5, randprog.DefaultConfig())
	e := New(p)
	e.FastForward(1<<16, nil)
	enc := e.AppendBinary(nil)
	dst := New(p)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.RestoreBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// imaged is a program whose load image holds words on pages 0x1, 0x2
// and 0x9: 7 at 0x1ff8, 8 at 0x2000 and 9 at 0x9000.
func imaged() *isa.Program {
	return asm.MustAssemble("imaged", ".data 0x1ff8 7 8\n.data 0x9000 9\nhalt")
}

// pageRecord is one page record of an encoding: its page number, its
// changed-word mask and the words that follow the mask.
type pageRecord struct {
	pn    uint64
	mask  [maskWords]uint64
	words []uint64
}

// set makes r record val for the word at addr, adding the word to the
// mask if r does not name it yet.
func (r *pageRecord) set(addr, val uint64) {
	i := addr >> 3 & pageMask
	bit := uint64(1) << (i & 63)
	k := 0 // words named below i
	for j := range i >> 6 {
		k += bits.OnesCount64(r.mask[j])
	}
	k += bits.OnesCount64(r.mask[i>>6] & (bit - 1))
	if r.mask[i>>6]&bit == 0 {
		r.mask[i>>6] |= bit
		r.words = slices.Insert(r.words, k, 0)
	}
	r.words[k] = val
}

// cloned is a deep copy of recs.
func cloned(recs []pageRecord) []pageRecord {
	r := slices.Clone(recs)
	for i := range r {
		r[i].words = slices.Clone(r[i].words)
	}
	return r
}

// decode splits a well-formed encoding into its header (page count
// included) and its page records.
func decode(enc []byte) (hdr []byte, recs []pageRecord) {
	off := stateHeaderBytes
	for off < len(enc)-stateSumBytes {
		r := pageRecord{pn: binary.LittleEndian.Uint64(enc[off:])}
		for j := range r.mask {
			r.mask[j] = binary.LittleEndian.Uint64(enc[off+8+8*j:])
		}
		n := maskCount(enc[off+8:])
		off += stateRecordBytes
		for range n {
			r.words = append(r.words, binary.LittleEndian.Uint64(enc[off:]))
			off += 8
		}
		recs = append(recs, r)
	}
	return enc[:stateHeaderBytes], recs
}

// encode writes hdr with its page count set to npages, then recs as
// given, and seals the result: decode's inverse when npages is
// len(recs), and a way to craft any record list otherwise.
func encode(hdr []byte, npages uint64, recs ...pageRecord) []byte {
	b := append([]byte(nil), hdr...)
	binary.LittleEndian.PutUint64(b[stateHeaderBytes-8:], npages)
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b, r.pn)
		for _, m := range r.mask {
			b = binary.LittleEndian.AppendUint64(b, m)
		}
		for _, w := range r.words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return seal(append(b, make([]byte, stateSumBytes)...))
}

// records lists the page numbers an encoding records.
func records(enc []byte) []uint64 {
	var pns []uint64
	_, recs := decode(enc)
	for _, r := range recs {
		pns = append(pns, r.pn)
	}
	return pns
}

// seal returns a copy of b with its FNV-1a trailer recomputed, so a
// crafted payload passes the checksum and reaches the structural checks.
func seal(b []byte) []byte {
	b = append([]byte(nil), b...)
	if len(b) < stateSumBytes {
		return b
	}
	h := fnv.New64a()
	h.Write(b[:len(b)-stateSumBytes])
	binary.LittleEndian.PutUint64(b[len(b)-stateSumBytes:], h.Sum64())
	return b
}

// malformedWrites are the words malformed's emulator writes over
// imaged's load image: one each on image pages 0x1 and 0x9 and on page
// 0x20 outside it.
var malformedWrites = []Word{{0x1000, 0x1000}, {0x9008, 0x9008}, {0x20000, 0x20000}}

// malformed returns the emulator imaged holds after malformedWrites and
// its encoding's header and three one-word records (pages 0x1, 0x9 and
// 0x20).
func malformed() (e *Emulator, hdr []byte, recs []pageRecord) {
	e = New(imaged())
	for _, w := range malformedWrites {
		e.Mem.Write(w.Addr, w.Val)
	}
	hdr, recs = decode(e.AppendBinary(nil))
	return e, hdr, recs
}

// TestRestoreBinaryRejectsMalformedPages feeds correctly checksummed
// encodings whose header or record list AppendBinary never writes. Each
// must fail with ErrCorruptState — not panic, not restore — and leave the
// emulator as it was.
func TestRestoreBinaryRejectsMalformedPages(t *testing.T) {
	src, hdr, recs := malformed()
	edit := func(f func(r []pageRecord)) []byte {
		r := cloned(recs)
		f(r)
		return encode(hdr, uint64(len(r)), r...)
	}
	// A first record of seven words makes the three records fill exactly
	// four records' fixed parts, so a count of 4 passes the size bound
	// and runs out of records.
	long := cloned(recs)
	for a := uint64(0x1008); a < 0x1038; a += 8 {
		long[0].set(a, a)
	}
	flagged := slices.Clone(hdr)
	binary.LittleEndian.PutUint64(flagged[24:], 2)
	// A version-2 page list: each changed page whole, 4,104 bytes a page.
	// Its count fits that payload only at version 2's record size.
	v2 := slices.Clone(hdr)
	for _, r := range recs {
		v2 = binary.LittleEndian.AppendUint64(v2, r.pn)
		for _, w := range src.Mem.pages[r.pn].words {
			v2 = binary.LittleEndian.AppendUint64(v2, w)
		}
	}
	cases := map[string][]byte{
		// 2^61 pages × stateRecordBytes wraps to 0 mod 2^64, so a length
		// check that multiplies first takes this 296-byte header with no
		// record bytes for a complete encoding.
		"page count wraps the length": encode(hdr, 1<<61),
		"page count too high":         encode(hdr, 4, recs...),
		"page count too low":          encode(hdr, 2, recs...),
		"page count past the records": encode(hdr, 4, long...),
		"pages out of order":          edit(func(r []pageRecord) { r[0].pn, r[1].pn = 0x9, 0x1 }),
		"duplicate page":              edit(func(r []pageRecord) { r[1].pn = 0x1 }),
		"page beyond address space":   edit(func(r []pageRecord) { r[2].pn = maxPageNum + 1 }),
		"unknown flag":                encode(flagged, 3, recs...),
		"empty mask":                  edit(func(r []pageRecord) { r[1] = pageRecord{pn: r[1].pn} }),
		"mask names more words":       edit(func(r []pageRecord) { r[2].mask[7] |= 1 << 63 }),
		"bytes after the last record": edit(func(r []pageRecord) { r[2].words = append(r[2].words, 0) }),
		"version-2 page list":         seal(append(v2, make([]byte, stateSumBytes)...)),
	}
	p := imaged()
	for name, b := range cases {
		e := New(p)
		e.Mem.Write(0x40000, 1)
		want := e.AppendBinary(nil)
		if err := e.RestoreBinary(b); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: RestoreBinary err = %v, want ErrCorruptState", name, err)
		}
		if got := e.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: rejected restore changed the emulator", name)
		}
	}
	if err := New(p).RestoreBinary(encode(hdr, 3, recs...)); err != nil {
		t.Fatalf("the unmodified encoding must restore: %v", err)
	}
}

// TestRestoreBinaryRecountsLiveWords: a restore adjusts each page's live
// count word by word as it writes the masked words over the load image,
// so a record that clears image words, one that clears every nonzero
// word of its page and one that adds words all yield a memory whose
// accounting matches its contents and which equals the memory the
// records describe.
func TestRestoreBinaryRecountsLiveWords(t *testing.T) {
	_, hdr, recs := malformed()
	p := imaged()
	for name, edits := range map[string][]Word{
		"image word cleared": {{0x1ff8, 0}},
		"all-zero record":    {{0x1ff8, 0}, {0x1000, 0}},
		"words added":        {{0x9010, 3}, {0x20008, 4}},
		"outside page zero":  {{0x20000, 0}},
		"sparse mask":        {{0x9ff8, 5}, {0x9200, 6}, {0x9000, 0}},
	} {
		want := New(p)
		for _, w := range malformedWrites {
			want.Mem.Write(w.Addr, w.Val)
		}
		r := cloned(recs)
		for _, ed := range edits {
			want.Mem.Write(ed.Addr, ed.Val)
			k := slices.IndexFunc(r, func(r pageRecord) bool { return r.pn == ed.Addr>>3>>pageShift })
			r[k].set(ed.Addr, ed.Val)
		}
		e := New(p)
		if err := e.RestoreBinary(encode(hdr, uint64(len(r)), r...)); err != nil {
			t.Fatalf("%s: RestoreBinary: %v", name, err)
		}
		checkLive(t, name, e.Mem)
		if !e.Mem.Equal(want.Mem) || e.Mem.Len() != want.Mem.Len() {
			t.Errorf("%s: restored memory %v, want %v", name, e.Mem.Snapshot(), want.Mem.Snapshot())
		}
	}
}

// checkLive fails t unless every page's live count, and the memory's
// total, equal the nonzero words actually held.
func checkLive(t *testing.T, name string, m *Memory) {
	t.Helper()
	total := 0
	for _, pn := range m.order {
		p := m.pages[pn]
		n := 0
		for _, w := range p.words {
			if w != 0 {
				n++
			}
		}
		if p.live != n {
			t.Fatalf("%s: page %#x counts %d live words, holds %d", name, pn, p.live, n)
		}
		total += n
	}
	if m.live != total {
		t.Fatalf("%s: memory counts %d live words, holds %d", name, m.live, total)
	}
}

// sameState reports whether two emulators hold the same architectural
// state.
func sameState(a, b *Emulator) bool {
	return a.PC == b.PC && a.Retired == b.Retired && a.Halted == b.Halted &&
		a.Regs == b.Regs && a.Mem.Equal(b.Mem)
}

// FuzzRestoreBinary drives arbitrary bytes into RestoreBinary, as given
// and with the checksum recomputed (the fuzzer cannot forge FNV-1a, and
// the sealed form reaches the header and record-list checks behind it).
// The target program has a load image on three pages, so restores copy
// it, overwrite and clear image words and add pages outside it. Every input either restores or fails with
// ErrCorruptState and none panics. A rejected input leaves the emulator
// untouched. An accepted one leaves a memory whose live accounting
// matches its words, and its re-encoding restores to the same state and
// re-encodes to itself.
func FuzzRestoreBinary(f *testing.F) {
	p := imaged()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range [][]byte{data, seal(data)} {
			e := New(p)
			e.Mem.Write(0x2000, 80) // a restore must replace this image word
			before := e.AppendBinary(nil)
			err := e.RestoreBinary(b)
			after := e.AppendBinary(nil)
			switch {
			case err == nil:
				checkLive(t, "restored", e.Mem)
				again := New(p)
				if err := again.RestoreBinary(after); err != nil {
					t.Fatalf("re-encoding of a restored state does not restore: %v", err)
				}
				if !sameState(again, e) || !bytes.Equal(again.AppendBinary(nil), after) {
					t.Fatalf("restored state does not survive re-encoding:\n in %x\nout %x", b, after)
				}
			case !errors.Is(err, ErrCorruptState):
				t.Fatalf("RestoreBinary error %v does not wrap ErrCorruptState", err)
			case !bytes.Equal(after, before):
				t.Fatalf("rejected restore (%v) changed the emulator", err)
			}
		}
	})
}
