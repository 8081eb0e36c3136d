// Package trace provides the trace-driven workload substrate replacing the
// paper's PARSEC 2.0 + Netrace setup, which is not available offline: a
// compact trace file format with dependency tracking, deterministic
// synthetic generators modelled on the eight PARSEC workloads the paper
// evaluates, and a dependency-respecting player that injects a trace into
// the simulator.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"nocsim/internal/reuse"
)

// Record is one packet of a trace. Records are ordered by Cycle.
type Record struct {
	// ID identifies the record; IDs are unique and positive within a
	// trace.
	ID uint64
	// Cycle is the earliest cycle the packet may be injected.
	Cycle int64
	// Src and Dest are node ids on the target mesh.
	Src, Dest int
	// Size is the packet length in flits.
	Size int
	// Dep, when nonzero, names a record that must be delivered before
	// this record may inject — Netrace-style dependency tracking (a
	// reply waits for its request).
	Dep uint64
}

const (
	magic   = "NOCT"
	version = 1
)

// Write encodes records to w in the binary trace format: a "NOCT" header,
// a version byte, the record count, then varint-encoded records with
// delta-encoded cycles.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(records))); err != nil {
		return err
	}
	prevCycle := int64(0)
	for i, r := range records {
		if r.Cycle < prevCycle {
			return fmt.Errorf("trace: record %d out of cycle order", i)
		}
		if r.ID == 0 {
			return fmt.Errorf("trace: record %d has zero ID", i)
		}
		for _, v := range []uint64{
			r.ID,
			uint64(r.Cycle - prevCycle),
			uint64(r.Src),
			uint64(r.Dest),
			uint64(r.Size),
			r.Dep,
		} {
			if err := putUvarint(v); err != nil {
				return err
			}
		}
		prevCycle = r.Cycle
	}
	return bw.Flush()
}

// Read decodes a trace written by Write.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, errors.New("trace: bad magic")
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[len(magic)])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	const maxRecords = 1 << 28 // guard against corrupt headers
	if count > maxRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", count)
	}
	// The count is only a claim until its records decode: preallocate for
	// at most a few thousand, so a 10-byte file cannot ask for gigabytes.
	records := make([]Record, 0, min(count, 1<<12))
	prevCycle := int64(0)
	for i := uint64(0); i < count; i++ {
		var vals [6]uint64
		for j := range vals {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: record %d field %d: %w", i, j, err)
			}
			vals[j] = v
		}
		rec := Record{
			ID:    vals[0],
			Cycle: prevCycle + int64(vals[1]),
			Src:   int(vals[2]),
			Dest:  int(vals[3]),
			Size:  int(vals[4]),
			Dep:   vals[5],
		}
		prevCycle = rec.Cycle
		records = append(records, rec)
	}
	return records, nil
}

// Merge combines several traces into one, reassigning IDs to keep them
// unique and preserving intra-trace dependencies. The paper stresses the
// network by running two PARSEC workloads simultaneously; Merge is how
// those pairs are formed. An invalid input stays invalid: a zero ID stays
// zero, a duplicate ID stays duplicate, and a Dep that names no record of
// its trace names no record of the merged trace.
func Merge(traces ...[]Record) []Record {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make([]Record, 0, total)
	dangling := uint64(total) + 1 // above every ID Merge assigns
	var nextID uint64
	for _, t := range traces {
		remap := make(map[uint64]uint64, len(t))
		for _, r := range t {
			nextID++
			if r.ID != 0 {
				remap[r.ID] = nextID
			}
		}
		for _, r := range t {
			r.ID = remap[r.ID]
			if r.Dep != 0 {
				d, ok := remap[r.Dep]
				if !ok {
					d = dangling
				}
				r.Dep = d
			}
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// Validate checks structural invariants: unique nonzero IDs, sizes >= 1,
// non-negative cycles, dependencies referencing existing records, and
// cycle ordering.
func Validate(records []Record, nodes int) error {
	_, err := depPositions(records, nodes, make(map[uint64]int32, len(records)), nil)
	return err
}

// depPositions validates records as Validate does and returns, for each
// record, the position of the record its Dep names, or -1 for none, on
// deps's array when it is large enough. It maps every ID to its position
// in pos, which it clears first.
func depPositions(records []Record, nodes int, pos map[uint64]int32, deps []int32) ([]int32, error) {
	clear(pos)
	prev := int64(0)
	for i, r := range records {
		if _, dup := pos[r.ID]; r.ID == 0 || dup {
			return deps, fmt.Errorf("trace: record %d: bad or duplicate ID %d", i, r.ID)
		}
		pos[r.ID] = int32(i)
		if r.Cycle < prev {
			return deps, fmt.Errorf("trace: record %d out of order", i)
		}
		prev = r.Cycle
		if r.Size < 1 {
			return deps, fmt.Errorf("trace: record %d: size %d", i, r.Size)
		}
		if r.Src < 0 || r.Src >= nodes || r.Dest < 0 || r.Dest >= nodes || r.Src == r.Dest {
			return deps, fmt.Errorf("trace: record %d: bad endpoints %d->%d", i, r.Src, r.Dest)
		}
	}
	deps = reuse.Fit(deps, len(records))
	for i, r := range records {
		deps[i] = -1
		if r.Dep != 0 {
			d, ok := pos[r.Dep]
			if !ok {
				return deps, fmt.Errorf("trace: record %d: dangling dependency %d", i, r.Dep)
			}
			deps[i] = d
		}
	}
	return deps, nil
}
