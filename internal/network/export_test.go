package network

import (
	"fmt"
)

// WakeListFaults checks the wake-list contract at a cycle boundary (after
// a Step, or after an Offer) against a scan of the whole fabric, and
// describes every breach. Three checks: every link holding a staged flit
// or credit is on the busy list exactly once and no empty link is; the
// receiving node of every staged flit is woken; and every node whose
// router or endpoint holds work is woken.
func (n *Network) WakeListFaults() []string {
	var faults []string
	listed := make(map[*channel]int, len(n.busy))
	for _, ch := range n.busy {
		listed[ch]++
	}
	woken := func(id int) bool { return n.wake[id>>6]&(1<<uint(id&63)) != 0 }
	for i := range n.links {
		ch := &n.links[i]
		busy, to := ch.flit != nil || len(ch.credits) > 0, int(ch.toNode)
		want := 0
		if busy {
			want = 1
		}
		if listed[ch] != want {
			faults = append(faults, fmt.Sprintf("link %d to node %d (busy %v) is on the busy list %d times, want %d",
				i, to, busy, listed[ch], want))
		}
		if ch.flit != nil && !woken(to) {
			faults = append(faults, fmt.Sprintf("link %d holds a flit and its receiving node %d is not woken", i, to))
		}
	}
	for id := range n.routers {
		if !(n.routers[id].Quiescent() && n.endpoints[id].Quiescent()) && !woken(id) {
			faults = append(faults, fmt.Sprintf("node %d holds work and is not woken", id))
		}
	}
	return faults
}
