package main

import (
	"math/rand"

	"mssr/internal/api"
)

// novelEvery is the served mix: request i is a novel spec when
// i%novelEvery == 0, otherwise a repeat of an earlier spec.
const novelEvery = 10

// request is one generated served request.
type request struct {
	Spec  api.Spec
	Key   string // canonical key
	Novel bool
}

// generator produces the served workload's request sequence from a seed.
// A novel spec is an RGID configuration (streams 1-8, entries 16-79) of
// a program at scale 0, redrawn until its canonical key is unused, so it
// always misses the fleet's cache and store. Novel specs take the
// programs in turn, in a seeded order, so every seed carries the same
// mix of simulation costs. A repeat names a uniformly chosen earlier
// spec, so it hits the cache, or the store once the cache has evicted
// it.
type generator struct {
	rng      *rand.Rand
	programs []string
	n        int
	history  []request
	seen     map[string]bool
}

// perProgram is the number of distinct novel specs of one program.
const perProgram = 8 * 64

func newGenerator(seed int64, programs []string) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
	for _, i := range g.rng.Perm(len(programs)) {
		g.programs = append(g.programs, programs[i])
	}
	return g
}

func (g *generator) next() request {
	i := g.n
	g.n++
	if i%novelEvery != 0 || len(g.history) == len(g.programs)*perProgram {
		r := g.history[g.rng.Intn(len(g.history))]
		r.Novel = false
		return r
	}
	// Every program gets its turn before any gets its second, so all run
	// out of novel specs together.
	program := g.programs[len(g.history)%len(g.programs)]
	for {
		s := api.Spec{
			Workload: program,
			Engine:   "rgid",
			Streams:  1 + g.rng.Intn(8),
			Entries:  16 + g.rng.Intn(64),
		}
		key := canonicalKey(s)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		r := request{Spec: s, Key: key, Novel: true}
		g.history = append(g.history, r)
		return r
	}
}

// canonicalKey is the key the fleet caches a wire spec under.
func canonicalKey(s api.Spec) string {
	sp, err := s.Sim()
	if err != nil {
		panic(err) // generated specs use fixed, valid names
	}
	return sp.CanonicalKey()
}
