package network

import (
	"fmt"

	"nocsim/internal/router"
)

// WakeListFaults checks the wake-list contract at a cycle boundary (after
// a Step, or after an Offer) against a scan of the whole fabric, and
// describes every breach. Three checks: every link holding a staged flit
// or credit is on the busy list exactly once and no empty link is; the
// receiving node of every staged flit is woken; and every node whose
// router or endpoint holds work is woken.
func (n *Network) WakeListFaults() []string {
	var faults []string
	listed := make(map[*router.Channel]int, len(n.lists.Busy))
	for _, ch := range n.lists.Busy {
		listed[ch]++
	}
	woken := func(id int) bool { return n.lists.Wake[id>>6]&(1<<uint(id&63)) != 0 }
	for i := range n.links {
		ch := &n.links[i]
		want := 0
		if ch.Busy() {
			want = 1
		}
		if listed[ch] != want {
			faults = append(faults, fmt.Sprintf("link %d to node %d (busy %v) is on the busy list %d times, want %d",
				i, ch.Receiver(), ch.Busy(), listed[ch], want))
		}
		if !ch.CanSend() && !woken(ch.Receiver()) {
			faults = append(faults, fmt.Sprintf("link %d holds a flit and its receiving node %d is not woken", i, ch.Receiver()))
		}
	}
	for id := range n.routers {
		if !(n.routers[id].Quiescent() && n.endpoints[id].Quiescent()) && !woken(id) {
			faults = append(faults, fmt.Sprintf("node %d holds work and is not woken", id))
		}
	}
	return faults
}
