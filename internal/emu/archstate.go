package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

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
//	pages   npages × { pageNum uint64, words [pageWords]uint64 }
//	sum     uint64   FNV-1a of every preceding byte
//
// Memory is recorded against the program's load image, the memory
// New(prog) starts with: a page record is written, in ascending
// page-number order, for every page whose words differ from the image's,
// and for no other. An image page the program has since zeroed is an
// all-zero record; a page the image lacks and the program left zero is
// no record, matching Memory.Equal/Hash semantics. A restore copies the
// image and overwrites the recorded pages, so the restored state is
// execution-equivalent (and digest-identical) to the source, provided it
// is restored into the program that captured it.

// stateVersion guards the binary format; decoders reject versions they
// do not know. Version 1 recorded every non-zero page.
const stateVersion = 2

var stateMagic = [4]byte{'m', 's', 'r', 'A'}

// ErrCorruptState is wrapped by every RestoreBinary failure: truncation,
// bad magic, unknown version, checksum mismatch, unknown flag bits or a
// page list AppendBinary would not write.
var ErrCorruptState = errors.New("emu: corrupt arch-state encoding")

const (
	stateHeaderBytes = 4 + 4 + 8 + 8 + 8 + isa.NumArchRegs*8 + 8
	statePageBytes   = 8 + PageBytes
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
// whose words differ from img's, passing m's page (zeroPage where m
// lacks it).
func changedPages(m, img *Memory, f func(pn uint64, p *page)) {
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
			f(pn, p)
		}
	}
}

// AppendBinary appends the versioned, checksummed binary encoding of the
// emulator's current state to dst and returns the extended slice. The
// encoding is deterministic: equal states of one program produce
// byte-identical encodings (the property that makes checkpoints
// content-addressable).
func (e *Emulator) AppendBinary(dst []byte) []byte {
	img := e.loadImage()
	npages := 0
	changedPages(e.Mem, img, func(uint64, *page) { npages++ })
	base := len(dst)
	if need := stateHeaderBytes + npages*statePageBytes + stateSumBytes; cap(dst)-base < need {
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
	changedPages(e.Mem, img, func(pn uint64, p *page) {
		dst = binary.LittleEndian.AppendUint64(dst, pn)
		for _, w := range p.words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	})
	h := fnv.New64a()
	h.Write(dst[base:])
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

// verifyState checks framing and checksum, returning the payload region
// (header + pages, checksum stripped) or an ErrCorruptState-wrapped
// failure.
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
	// Bound the page count before multiplying: a crafted count wraps the
	// product (2^61 pages × statePageBytes ≡ 0 mod 2^64).
	npages := binary.LittleEndian.Uint64(body[stateHeaderBytes-8:])
	if npages > uint64(len(body)-stateHeaderBytes)/statePageBytes || stateHeaderBytes+int(npages)*statePageBytes != len(body) {
		return nil, fmt.Errorf("%w: %d pages do not fill a %d-byte payload", ErrCorruptState, npages, len(body))
	}
	// Page numbers must ascend, as AppendBinary writes them, and be ones a
	// word address can reach: a repeated or unsorted page would restore a
	// memory whose page list disagrees with its page table.
	var prev uint64
	for off := stateHeaderBytes; off < len(body); off += statePageBytes {
		pn := binary.LittleEndian.Uint64(body[off:])
		if pn > maxPageNum || (off > stateHeaderBytes && pn <= prev) {
			return nil, fmt.Errorf("%w: page %#x out of order or range", ErrCorruptState, pn)
		}
		prev = pn
	}
	return body, nil
}

// RestoreBinary installs a checkpoint produced by AppendBinary into the
// emulator — the hot restore path of checkpointed multi-fidelity runs.
// It verifies the whole encoding first, so a rejected one leaves the
// emulator untouched. The memory then starts as a copy of the program's
// load image in the emulator's pooled pages, and each recorded page
// overwrites its image page, so a steady-state restore allocates
// nothing. The loaded program is unchanged; b must describe a point in
// the same program.
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
	for off := stateHeaderBytes; off < len(body); off += statePageBytes {
		p := m.ensure(binary.LittleEndian.Uint64(body[off:]))
		words := body[off+8 : off+statePageBytes]
		// Counting the nonzero words while copying them keeps the memory's
		// live accounting true to its contents; (w|-w)>>63 is 1 exactly
		// when w is nonzero.
		live := 0
		for i := range p.words {
			w := binary.LittleEndian.Uint64(words[8*i:])
			p.words[i] = w
			live += int((w | -w) >> 63)
		}
		m.live += live - p.live
		p.live = live
	}
	return nil
}
