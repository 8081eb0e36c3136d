// A memoizing algorithm whose Route mutates caller-visible state: the
// receiver's memo map and hit counter. A Route that self-caches hides
// writes inside what the router treats as a pure decision function of
// (Context, View): it is re-evaluated every cycle a head flit waits,
// and determinism rests on it reading state but never keeping any.
// noclint must flag every write.
package fixture

// CachingAlg memoizes decisions inside Route itself.
type CachingAlg struct {
	memo map[int][]int
	hits int
}

// Route consults and populates the receiver's memo.
func (c *CachingAlg) Route(dest int, reqs []int) []int {
	if cached, ok := c.memo[dest]; ok {
		c.hits++
		return append(reqs, cached...)
	}
	decision := []int{dest % 4}
	c.memo[dest] = decision
	return append(reqs, decision...)
}
