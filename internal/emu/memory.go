// Package emu implements the functional (ISA-level) emulator used as the
// golden reference: every timing simulation must retire the same dynamic
// instruction stream and produce the same final architectural state as this
// emulator, regardless of which squash-reuse mechanism is enabled.
package emu

import (
	"hash/fnv"
	"sort"

	"mssr/internal/isa"
)

// Page geometry of the sparse memory. 4 KB pages (512 words) match the
// usual OS granule and keep one page comfortably inside the L2 of any
// host, so a page-local burst of simulated accesses stays cache-resident.
const (
	// PageBytes is the backing-page size of the sparse memory.
	PageBytes = 4096
	pageWords = PageBytes / 8
	pageShift = 9 // log2(pageWords): word-index bits per page
	pageMask  = pageWords - 1
)

// page is one fixed-size block of backing storage. live counts the
// nonzero words, so Hash/Equal/Len can skip fully-zero pages and a zero
// write keeps memories that converged comparing equal.
type page struct {
	words [pageWords]uint64
	live  int
}

// Memory is a sparse 64-bit word-addressable data memory. Accesses are
// aligned down to 8-byte boundaries; unwritten locations read as zero.
// The same type backs both the functional emulator's architectural memory
// and the timing core's committed memory, which guarantees identical
// semantics on both sides of the equivalence tests.
//
// Storage is paged: a page table maps page number (word address >>
// pageShift) to fixed-size pages, so Read and Write are a shift, a mask
// and (on the sequential-access patterns the workloads produce) usually a
// single-entry page-cache hit rather than a map probe per access. Pages
// freed by Clear are pooled and handed back zeroed, so a pooled core's
// next run refills the same footprint without allocating.
type Memory struct {
	pages map[uint64]*page
	// order holds the allocated page numbers in ascending order
	// (maintained on the rare allocation path), giving Hash, Equal and
	// Snapshot a deterministic page-ordered walk without sorting per
	// call.
	order []uint64
	free  []*page // zeroed pages pooled by Clear
	live  int     // total nonzero words

	// Single-entry page cache: page number and pointer of the last page
	// touched. Word-adjacent accesses — the common case for the array
	// kernels — bypass the page table entirely.
	cachedNum  uint64
	cachedPage *page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{pages: make(map[uint64]*page)} }

// Load loads the initialized data segments of p.
func (m *Memory) Load(p *isa.Program) {
	for _, seg := range p.Data {
		for i, w := range seg.Words {
			m.Write(seg.Addr+uint64(i)*8, w)
		}
	}
}

// Clear erases all contents. Pages are zeroed and moved to the free pool
// and the page table keeps its buckets, so a cleared memory refills the
// same footprint without allocating.
func (m *Memory) Clear() {
	for _, pn := range m.order {
		p := m.pages[pn]
		if p.live > 0 {
			clear(p.words[:])
			p.live = 0
		}
		m.free = append(m.free, p)
	}
	clear(m.pages)
	m.order = m.order[:0]
	m.live = 0
	m.cachedPage = nil
	m.cachedNum = 0
}

// lookup returns the page holding word index w, or nil if never written.
func (m *Memory) lookup(pn uint64) *page {
	if m.cachedPage != nil && m.cachedNum == pn {
		return m.cachedPage
	}
	p := m.pages[pn]
	if p != nil {
		m.cachedNum, m.cachedPage = pn, p
	}
	return p
}

// ensure returns the page holding word index w, allocating it if needed.
func (m *Memory) ensure(pn uint64) *page {
	if p := m.lookup(pn); p != nil {
		return p
	}
	var p *page
	if n := len(m.free); n > 0 {
		p = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		p = new(page)
	}
	m.pages[pn] = p
	// Keep order sorted: binary-search the insertion point. Page
	// allocation is rare (once per 4 KB of footprint), so the memmove
	// never shows up in profiles.
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i] > pn })
	m.order = append(m.order, 0)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = pn
	m.cachedNum, m.cachedPage = pn, p
	return p
}

// Read returns the word at addr (aligned down to 8 bytes).
func (m *Memory) Read(addr uint64) uint64 {
	w := addr >> 3
	p := m.lookup(w >> pageShift)
	if p == nil {
		return 0
	}
	return p.words[w&pageMask]
}

// Write stores val at addr (aligned down to 8 bytes). Writing zero clears
// the backing word and the page's live count, so memories that have
// converged compare equal regardless of write history.
func (m *Memory) Write(addr, val uint64) {
	w := addr >> 3
	pn := w >> pageShift
	p := m.lookup(pn)
	if p == nil {
		if val == 0 {
			return // already zero
		}
		p = m.ensure(pn)
	}
	i := w & pageMask
	old := p.words[i]
	if old == val {
		return
	}
	if old == 0 {
		p.live++
		m.live++
	} else if val == 0 {
		p.live--
		m.live--
	}
	p.words[i] = val
}

// Len reports how many non-zero words the memory holds.
func (m *Memory) Len() int { return m.live }

// Clone returns a deep copy of the memory.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	c.order = append(c.order, m.order...)
	c.live = m.live
	for _, pn := range m.order {
		p := new(page)
		*p = *m.pages[pn]
		c.pages[pn] = p
	}
	return c
}

// CopyFrom makes m an exact deep copy of o, reusing m's pooled pages.
// In steady state (same footprint run to run, as when a pooled core is
// reseeded from successive fast-forward states) it allocates nothing.
func (m *Memory) CopyFrom(o *Memory) {
	// Each of o's pages overwrites a page of m whole, so only m's pages
	// beyond o's count are zeroed for the pool. The rest are pushed last,
	// so the loop below pops every one of them back out before the pool
	// hands a page to ensure.
	keep := min(len(m.order), len(o.order))
	for _, pn := range m.order[keep:] {
		p := m.pages[pn]
		if p.live > 0 {
			clear(p.words[:])
			p.live = 0
		}
		m.free = append(m.free, p)
	}
	for _, pn := range m.order[:keep] {
		m.free = append(m.free, m.pages[pn])
	}
	clear(m.pages)
	m.cachedPage, m.cachedNum = nil, 0
	m.order = append(m.order[:0], o.order...)
	m.live = o.live
	for _, pn := range o.order {
		var p *page
		if n := len(m.free); n > 0 {
			p = m.free[n-1]
			m.free = m.free[:n-1]
		} else {
			p = new(page)
		}
		*p = *o.pages[pn]
		m.pages[pn] = p
	}
}

// Word is one (address, value) pair of a Snapshot.
type Word struct {
	Addr, Val uint64
}

// Snapshot returns every non-zero word in ascending address order. It is
// the slow, allocating form of the page-ordered walk behind Hash and
// Equal, intended for tests and tooling.
func (m *Memory) Snapshot() []Word {
	out := make([]Word, 0, m.live)
	for _, pn := range m.order {
		p := m.pages[pn]
		if p.live == 0 {
			continue
		}
		base := pn << pageShift
		for i, v := range p.words {
			if v != 0 {
				out = append(out, Word{Addr: (base + uint64(i)) << 3, Val: v})
			}
		}
	}
	return out
}

// Hash returns an order-stable FNV-1a hash of memory contents, used by
// equivalence tests to compare final states cheaply. The walk follows the
// sorted page list rather than sorting a key set per call; the digest is
// bit-identical to hashing every (address, value) pair in ascending
// address order.
func (m *Memory) Hash() uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, pn := range m.order {
		p := m.pages[pn]
		if p.live == 0 {
			continue
		}
		base := pn << pageShift
		for i, v := range p.words {
			if v == 0 {
				continue
			}
			a := (base + uint64(i)) << 3
			for b := 0; b < 8; b++ {
				buf[b] = byte(a >> (8 * b))
				buf[8+b] = byte(v >> (8 * b))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// Equal reports whether two memories hold identical contents. Pages that
// exist on one side but hold only zeros are equal to pages the other side
// never allocated.
func (m *Memory) Equal(o *Memory) bool {
	if m.live != o.live {
		return false
	}
	for _, pn := range m.order {
		p := m.pages[pn]
		if p.live == 0 {
			continue
		}
		op := o.pages[pn]
		if op == nil {
			return false // m has nonzero words here, o reads zero
		}
		if p.words != op.words {
			// Word arrays differ; with equal global live counts this can
			// only be a real content difference.
			return false
		}
	}
	return true
}
