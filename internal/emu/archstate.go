package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"

	"mssr/internal/isa"
)

// This file is the checkpoint serialization of an emulator's state: a
// versioned, checksummed, little-endian binary encoding of the
// architectural machine state (registers plus the paged sparse memory)
// that internal/ckpt stores content-addressed and internal/sim restores
// instead of re-emulating the functional prefix. The format is a
// persistence format — checkpoints written by one process are restored by
// another — so any change must bump stateVersion and is never a harmless
// refactor.
//
// Layout (all integers little-endian):
//
//	magic   [4]byte  "msrA"
//	version uint32   stateVersion
//	pc      uint64
//	retired uint64
//	flags   uint64   bit 0: halted
//	regs    [NumArchRegs]uint64
//	npages  uint64   count of page records
//	pages   npages × { pageNum uint64, mask [maskWords]uint64, words [k]uint64 }
//	sum     uint64   FNV-1a of every preceding byte
//
// Memory is recorded against the program's load image, the memory
// New(prog) starts with: a page record is written, in ascending
// page-number order, for every page whose words differ from the image's,
// and for no other. Its mask has bit i%64 of mask[i/64] set for each
// word i that differs, and its k words are those words' current values
// in ascending index order, so a record costs 72+8k bytes. An image word
// the program has since zeroed is a masked zero; a page the image lacks
// and the program left zero is no record, matching Memory.Equal/Hash
// semantics. A restore copies the image and overwrites the masked words,
// so the restored state is execution-equivalent (and digest-identical)
// to the source, provided it is restored into the program that captured
// it.

// stateVersion guards the binary format; decoders reject versions they
// do not know. Version 1 recorded every non-zero page, and version 2
// every word of each page that differs from the load image.
const stateVersion = 3

var stateMagic = [4]byte{'m', 's', 'r', 'A'}

// ErrCorruptState is wrapped by every RestoreBinary failure: truncation,
// bad magic, unknown version, checksum mismatch, unknown flag bits or a
// record list AppendBinary would not write.
var ErrCorruptState = errors.New("emu: corrupt arch-state encoding")

const (
	stateHeaderBytes = 4 + 4 + 8 + 8 + 8 + isa.NumArchRegs*8 + 8
	// maskWords is the length of a page record's changed-word mask, and
	// stateRecordBytes the fixed part of a record: page number and mask.
	maskWords        = pageWords / 64
	stateRecordBytes = 8 + maskWords*8
	stateSumBytes    = 8
	// maxPageNum is the page number of the highest byte address.
	maxPageNum = math.MaxUint64 >> (3 + pageShift)
)

// loadImage returns the program's load image, building it the first
// time the emulator captures or restores a checkpoint of its program.
func (e *Emulator) loadImage() *Memory {
	if e.imageOf != e.Prog {
		e.image = NewMemory()
		e.image.Load(e.Prog)
		e.imageOf = e.Prog
	}
	return e.image
}

// zeroPage is what a page a memory lacks reads as.
var zeroPage page

// changedPages calls f, in ascending page order, for every page of m
// whose words differ from img's, passing m's page and img's (zeroPage
// where a memory lacks it).
func changedPages(m, img *Memory, f func(pn uint64, p, q *page)) {
	for i, j := 0, 0; i < len(m.order) || j < len(img.order); {
		pn := uint64(math.MaxUint64) // above maxPageNum
		if i < len(m.order) {
			pn = m.order[i]
		}
		if j < len(img.order) {
			pn = min(pn, img.order[j])
		}
		p, q := &zeroPage, &zeroPage
		if i < len(m.order) && m.order[i] == pn {
			p = m.pages[pn]
			i++
		}
		if j < len(img.order) && img.order[j] == pn {
			q = img.pages[pn]
			j++
		}
		if p.live != q.live || p.words != q.words {
			f(pn, p, q)
		}
	}
}

// diffMask returns the changed-word mask of p against q (bit i%64 of
// mask[i/64] set where word i differs) and how many bits it sets.
func diffMask(p, q *page) (mask [maskWords]uint64, n int) {
	for j := range mask {
		pw, qw := (*[64]uint64)(p.words[j<<6:]), (*[64]uint64)(q.words[j<<6:])
		if *pw == *qw {
			continue
		}
		for i, w := range pw {
			if w != qw[i] {
				mask[j] |= 1 << i
			}
		}
		n += bits.OnesCount64(mask[j])
	}
	return mask, n
}

// AppendBinary appends the versioned, checksummed binary encoding of the
// emulator's current state to dst and returns the extended slice. The
// encoding is deterministic: equal states of one program produce
// byte-identical encodings (the property that makes checkpoints
// content-addressable). A fresh dst is sized exactly, since the
// checkpoint store holds the slice it is given.
func (e *Emulator) AppendBinary(dst []byte) []byte {
	img := e.loadImage()
	npages, nwords := 0, 0
	changedPages(e.Mem, img, func(_ uint64, p, q *page) {
		_, n := diffMask(p, q)
		npages++
		nwords += n
	})
	base := len(dst)
	if need := stateHeaderBytes + npages*stateRecordBytes + nwords*8 + stateSumBytes; cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, stateMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, stateVersion)
	dst = binary.LittleEndian.AppendUint64(dst, e.PC)
	dst = binary.LittleEndian.AppendUint64(dst, e.Retired)
	var flags uint64
	if e.Halted {
		flags |= 1
	}
	dst = binary.LittleEndian.AppendUint64(dst, flags)
	for _, r := range e.Regs {
		dst = binary.LittleEndian.AppendUint64(dst, r)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(npages))
	changedPages(e.Mem, img, func(pn uint64, p, q *page) {
		mask, _ := diffMask(p, q)
		dst = binary.LittleEndian.AppendUint64(dst, pn)
		for _, m := range mask {
			dst = binary.LittleEndian.AppendUint64(dst, m)
		}
		for j, m := range mask {
			for ; m != 0; m &= m - 1 {
				dst = binary.LittleEndian.AppendUint64(dst, p.words[j<<6|bits.TrailingZeros64(m)])
			}
		}
	})
	h := fnv.New64a()
	h.Write(dst[base:])
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

// maskCount is the number of words a record's mask, at b, names.
func maskCount(b []byte) int {
	n := 0
	for j := range maskWords {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(b[8*j:]))
	}
	return n
}

// verifyState checks framing, checksum and the record list, returning
// the payload region (header + records, checksum stripped) or an
// ErrCorruptState-wrapped failure.
func verifyState(b []byte) ([]byte, error) {
	if len(b) < stateHeaderBytes+stateSumBytes {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrCorruptState, len(b))
	}
	if [4]byte(b[:4]) != stateMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptState, b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != stateVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorruptState, v)
	}
	body, tail := b[:len(b)-stateSumBytes], b[len(b)-stateSumBytes:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptState)
	}
	if flags := binary.LittleEndian.Uint64(body[24:]); flags&^1 != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorruptState, flags)
	}
	// Bound the page count by the smallest record first, so no
	// arithmetic on a crafted count can wrap (2^61 pages ×
	// stateRecordBytes ≡ 0 mod 2^64).
	npages := binary.LittleEndian.Uint64(body[stateHeaderBytes-8:])
	if npages > uint64(len(body)-stateHeaderBytes)/stateRecordBytes {
		return nil, fmt.Errorf("%w: %d pages do not fit a %d-byte payload", ErrCorruptState, npages, len(body))
	}
	// Page numbers must ascend, as AppendBinary writes them, and be ones a
	// word address can reach: a repeated or unsorted page would restore a
	// memory whose page list disagrees with its page table. Each record
	// names at least one word, holds every word it names, and the records
	// fill the payload exactly.
	off := stateHeaderBytes
	var prev uint64
	for k := range npages {
		if len(body)-off < stateRecordBytes {
			return nil, fmt.Errorf("%w: record %d of %d is truncated", ErrCorruptState, k, npages)
		}
		pn := binary.LittleEndian.Uint64(body[off:])
		if pn > maxPageNum || (k > 0 && pn <= prev) {
			return nil, fmt.Errorf("%w: page %#x out of order or range", ErrCorruptState, pn)
		}
		prev = pn
		n := maskCount(body[off+8:])
		if n == 0 {
			return nil, fmt.Errorf("%w: page %#x records no word", ErrCorruptState, pn)
		}
		off += stateRecordBytes
		if n > (len(body)-off)/8 {
			return nil, fmt.Errorf("%w: page %#x names %d words, %d bytes remain", ErrCorruptState, pn, n, len(body)-off)
		}
		off += 8 * n
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d bytes follow the last record", ErrCorruptState, len(body)-off)
	}
	return body, nil
}

// RestoreBinary installs a checkpoint produced by AppendBinary into the
// emulator — the hot restore path of checkpointed multi-fidelity runs.
// It verifies the whole encoding first, so a rejected one leaves the
// emulator untouched. The memory then starts as a copy of the program's
// load image in the emulator's pooled pages, and each record overwrites
// the words its mask names, so a steady-state restore allocates nothing.
// The loaded program is unchanged; b must describe a point in the same
// program.
func (e *Emulator) RestoreBinary(b []byte) error {
	body, err := verifyState(b)
	if err != nil {
		return err
	}
	e.PC = binary.LittleEndian.Uint64(body[8:])
	e.Retired = binary.LittleEndian.Uint64(body[16:])
	e.Halted = binary.LittleEndian.Uint64(body[24:])&1 != 0
	for i := range e.Regs {
		e.Regs[i] = binary.LittleEndian.Uint64(body[32+8*i:])
	}
	m := e.Mem
	m.CopyFrom(e.loadImage())
	for off := stateHeaderBytes; off < len(body); {
		// A page the image lacks comes zeroed from the pool, and an image
		// page holds the image's words, so adjusting the live counts word
		// by word keeps the accounting true to the contents; (w|-w)>>63 is
		// 1 exactly when w is nonzero.
		p := m.ensure(binary.LittleEndian.Uint64(body[off:]))
		mask := body[off+8 : off+stateRecordBytes]
		off += stateRecordBytes
		for j := range maskWords {
			for bm := binary.LittleEndian.Uint64(mask[8*j:]); bm != 0; bm &= bm - 1 {
				i := j<<6 | bits.TrailingZeros64(bm)
				old, w := p.words[i], binary.LittleEndian.Uint64(body[off:])
				off += 8
				p.words[i] = w
				d := int((w|-w)>>63) - int((old|-old)>>63)
				p.live += d
				m.live += d
			}
		}
	}
	return nil
}
