package obs_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/obs"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// wedgedNet floods a 2x2 fabric toward node 3, whose endpoint never
// consumes, and steps until the backpressure freezes everything.
func wedgedNet(t *testing.T) *network.Network {
	return floodNet(t, 500, map[int]int{3: 1 << 30})
}

// floodNet steps a 2x2 fabric for the given cycles while nodes 0-2 each
// offer node 3 a single-flit packet per cycle; slow is the fabric's
// SlowEndpoints.
func floodNet(t *testing.T, cycles int, slow map[int]int) *network.Network {
	t.Helper()
	n := network.New(network.Config{
		Mesh:          topo.MustNew(2, 2),
		VCs:           2,
		BufDepth:      4,
		Speedup:       2,
		Alg:           routing.MustNew("footprint"),
		Rand:          rand.New(rand.NewSource(1)),
		SlowEndpoints: slow,
	}, nil)
	n.Sink = func(p *flit.Packet) {}
	id := uint64(0)
	for cycle := 0; cycle < cycles; cycle++ {
		for _, src := range []int{0, 1, 2} {
			id++
			n.Offer(&flit.Packet{ID: id, Src: src, Dest: 3, Size: 1, Born: n.Now()})
		}
		n.Step()
	}
	return n
}

func TestSnapshotCapturesWedgedFabric(t *testing.T) {
	n := wedgedNet(t)
	snap := obs.Capture(n)
	if snap.Cycle != n.Now() || snap.Width != 2 || snap.Height != 2 {
		t.Errorf("header = %+v", snap)
	}
	if snap.InFlight == 0 {
		t.Fatal("wedged fabric shows no in-flight packets")
	}
	if len(snap.Routers) != 4 {
		t.Fatalf("captured %d routers, want 4", len(snap.Routers))
	}
	if snap.BlockedVCs == 0 {
		t.Error("no blocked VCs in a wedged fabric")
	}
	if len(snap.Chains) == 0 {
		t.Fatal("no blocked-on chains in a wedged fabric")
	}
	// Node 3's endpoint holds a full ejection buffer.
	if got := snap.Routers[3].EjectionBacklog; got == 0 {
		t.Error("frozen endpoint shows no ejection backlog")
	}
	// Footprint channels toward the single hot destination must be marked.
	foot := 0
	for _, rs := range snap.Routers {
		for _, ov := range rs.OutputVCs {
			if ov.Footprint {
				foot++
			}
		}
	}
	if foot == 0 {
		t.Error("no footprint output VCs captured for a single-destination flood")
	}
	if s := snap.Summary(); !strings.Contains(s, "blocked") || !strings.Contains(s, "chain") {
		t.Errorf("summary misses headline facts:\n%s", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	n := wedgedNet(t)
	snap := obs.Capture(n)
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got obs.FabricSnapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(&got, snap) {
		t.Errorf("snapshot did not survive the JSON round trip:\nin:  %+v\nout: %+v", snap, &got)
	}
}
