package trace

import (
	"bytes"
	"testing"
)

// FuzzRead ensures the trace decoder never panics or over-allocates on
// arbitrary input; it either returns records or an error.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NOCT\x01"))
	f.Add([]byte(hugeCount))
	f.Add([]byte("XXXX"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that decodes cleanly must re-encode cleanly if it is
		// structurally valid (ordered, nonzero IDs).
		if Validate(records, 1<<30) == nil {
			var out bytes.Buffer
			if err := Write(&out, records); err != nil {
				t.Fatalf("decoded trace failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzGenerateWorkload checks trace generation stays structurally valid
// under fuzzed workload parameters.
func FuzzGenerateWorkload(f *testing.F) {
	f.Add(0.01, 0.5, uint8(8), uint8(4), 0.5, 0.3)
	f.Fuzz(func(t *testing.T, peerRate, duty float64, sharers, share uint8, replyFrac, writeFrac float64) {
		if peerRate < 0 || peerRate > 1 || duty < 0 || duty > 1 ||
			replyFrac < 0 || replyFrac > 1 || writeFrac < 0 || writeFrac > 1 {
			t.Skip()
		}
		w := Workload{
			Name:           "fuzz",
			PeerRate:       peerRate,
			DirRate:        peerRate,
			DirSharers:     int(sharers%32) + 1,
			DutyCycle:      duty,
			BurstLen:       50,
			ShareDegree:    int(share%16) + 1,
			ReplyFraction:  replyFrac,
			WriteFraction:  writeFrac,
			MaxOutstanding: 8,
		}
		m, _ := newMesh()
		recs := Generate(w, m, 500, 1)
		if err := Validate(recs, m.Nodes()); err != nil {
			t.Fatalf("generated invalid trace: %v", err)
		}
	})
}
