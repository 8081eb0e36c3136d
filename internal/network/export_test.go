package network

import (
	"fmt"

	"nocsim/internal/router"
)

// WakeListFaults checks the wake-list contract at a cycle boundary (after
// a Step, or after an Offer) against a scan of the whole fabric, and
// describes every breach: the busy list must hold each Busy link exactly
// once and no idle one, and the wake set
// must cover both ends of every busy link and every node whose router or
// endpoint is not quiescent.
func (n *Network) WakeListFaults() []string {
	var faults []string
	listed := make(map[*router.Channel]int, len(n.busy))
	for _, ch := range n.busy {
		listed[ch]++
	}
	woken := func(id int) bool { return n.wake[id>>6]&(1<<uint(id&63)) != 0 }
	for i := range n.links {
		ch := &n.links[i]
		from, to := ch.Ends()
		want := 0
		if ch.Busy() {
			want = 1
		}
		if listed[ch] != want {
			faults = append(faults, fmt.Sprintf("link %d->%d (busy %v) is on the busy list %d times, want %d",
				from, to, ch.Busy(), listed[ch], want))
		}
		if ch.Busy() && !(woken(from) && woken(to)) {
			faults = append(faults, fmt.Sprintf("busy link %d->%d: ends woken %v and %v",
				from, to, woken(from), woken(to)))
		}
	}
	for id := range n.routers {
		if !(n.routers[id].Quiescent() && n.endpoints[id].Quiescent()) && !woken(id) {
			faults = append(faults, fmt.Sprintf("node %d holds work and is not woken", id))
		}
	}
	return faults
}
