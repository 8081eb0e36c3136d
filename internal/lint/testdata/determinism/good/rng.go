// Run-owned generators: draws through parameters, fields of local
// values, and locals are all legal — the state's lifetime is the run's.
package fixture

import "math/rand"

// decider is a narrowed generator interface: the generator arrives
// as an interface value owned by the caller.
type decider interface {
	Intn(n int) int
}

// pick draws from a caller-owned generator.
func pick(r decider, n int) int {
	return r.Intn(n)
}

// engine owns its generator for one run.
type engine struct {
	rng *rand.Rand
}

func (e *engine) step() int {
	return e.rng.Intn(6)
}

// localDraw seeds and drains a generator entirely within one call.
func localDraw(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}
