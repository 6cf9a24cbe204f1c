package sim

import (
	"slices"
	"sync"

	"mssr/internal/core"
	"mssr/internal/isa"
)

// CorePool keeps idle cores for later jobs. A core is built for a
// machine shape (Spec.shapeKey: the commit checker, the sampler geometry
// and the tuning, everything core.New sizes from except the engine) and
// carries one reuse engine. A draw prefers an idle core whose engine
// already matches the spec, which it only Resets. Otherwise it takes the
// least recently returned core of the spec's shape and rebuilds just its
// engine (core.Core.SetEngine), a fraction of core.New's cost. Only with
// no idle core of the shape does it build one.
//
// The pool never holds more idle cores than it has had in use at once:
// a return beyond that bound drops the least recently returned idle
// core, so cores of a shape no longer asked for do not pile up.
//
// The zero value is ready to use, and a pool is safe for concurrent use.
// A Runner without one keeps its own; msrd hands one to every per-job
// Runner, so a job's simulations run on the cores earlier jobs built.
type CorePool struct {
	mu    sync.Mutex
	idle  []pooledCore // least recently returned first
	inUse int
	peak  int
	// built counts core.New calls, rebuilt engine rebuilds.
	built, rebuilt int
}

// pooledCore is a core with the keys of the spec it last ran.
type pooledCore struct {
	c          *core.Core
	key, shape string
}

// Builds reports how many cores the pool has built and how many engines
// it has rebuilt on drawn cores.
func (p *CorePool) Builds() (cores, engines int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built, p.rebuilt
}

// get returns a core for s, set up to run prog under cfg (s's Config).
// The core is on loan: hand it back with put, or end the loan with drop
// if it must not run again. ok is false for a spec that bypasses the
// pool (a traced one), whose core is its own and is not handed back.
func (p *CorePool) get(s *Spec, prog *isa.Program, cfg core.Config) (pc pooledCore, ok bool) {
	pc.key = s.poolKey()
	if pc.key == "" {
		return pooledCore{c: core.New(prog, cfg)}, false
	}
	pc.shape = s.shapeKey()
	rebuild := false
	p.mu.Lock()
	// The loan counts from the draw, so the peak covers cores still being
	// built or reset: counted later, it misses them and the bound drops
	// cores the next concurrent draws build again.
	p.inUse++
	p.peak = max(p.peak, p.inUse)
	if i := p.match(pc.key, pc.shape); i >= 0 {
		pc.c, rebuild = p.idle[i].c, p.idle[i].key != pc.key
		p.idle = slices.Delete(p.idle, i, i+1)
	}
	switch {
	case pc.c == nil:
		p.built++
	case rebuild:
		p.rebuilt++
	}
	p.mu.Unlock()
	// A construction that panics ends its loan here: the caller only
	// learns of the loans it was handed.
	ready := false
	defer func() {
		if !ready {
			p.drop()
		}
	}()
	switch {
	case pc.c == nil:
		pc.c = core.New(prog, cfg)
	case rebuild:
		pc.c.SetEngine(prog, cfg)
	default:
		pc.c.Reset(prog)
	}
	ready = true
	return pc, true
}

// match returns the index of the idle core a draw for key takes: the
// most recently returned one with key itself, else the least recently
// returned one of shape, else -1.
func (p *CorePool) match(key, shape string) int {
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == key {
			return i
		}
	}
	for i, ic := range p.idle {
		if ic.shape == shape {
			return i
		}
	}
	return -1
}

// put ends a loan by returning the core to the idle list, dropping the
// least recently returned idle core if the list would outgrow the most
// cores ever in use at once. The core's live-interval hook is cleared
// first: it belongs to the job that ran it.
func (p *CorePool) put(pc pooledCore) {
	pc.c.SetIntervalHook(nil)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inUse--
	p.idle = append(p.idle, pc)
	if len(p.idle) > p.peak {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}

// drop ends a loan without returning the core: a core that panicked
// mid-run is left to the garbage collector.
func (p *CorePool) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inUse--
}
