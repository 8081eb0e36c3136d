// The pure counterpart of the caching fixture: a Route that reads a
// prebuilt table owned by the receiver but writes only locals: the
// algorithm just computes, every call.
package fixture

// TableAlg routes from an immutable table built at construction.
type TableAlg struct {
	table map[int][]int
}

// Route reads the table and appends to the caller's slice — the only
// memory it may grow is the request list it was handed.
func (t *TableAlg) Route(dest int, reqs []int) []int {
	decision, ok := t.table[dest]
	if !ok {
		fallback := dest % 4
		return append(reqs, fallback)
	}
	return append(reqs, decision...)
}
