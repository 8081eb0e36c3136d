package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"nocsim/internal/topo"
)

func sample() []Record {
	return []Record{
		{ID: 1, Cycle: 0, Src: 0, Dest: 5, Size: 1},
		{ID: 2, Cycle: 0, Src: 5, Dest: 0, Size: 5, Dep: 1},
		{ID: 3, Cycle: 7, Src: 2, Dest: 9, Size: 1},
		{ID: 4, Cycle: 100, Src: 9, Dest: 2, Size: 5, Dep: 3},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWriteRejectsDisorder(t *testing.T) {
	recs := []Record{{ID: 1, Cycle: 10, Src: 0, Dest: 1, Size: 1}, {ID: 2, Cycle: 5, Src: 0, Dest: 1, Size: 1}}
	if err := Write(&bytes.Buffer{}, recs); err == nil {
		t.Error("out-of-order write should fail")
	}
	if err := Write(&bytes.Buffer{}, []Record{{ID: 0, Cycle: 0, Src: 0, Dest: 1, Size: 1}}); err == nil {
		t.Error("zero-ID write should fail")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("XXXX\x01")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Read(strings.NewReader("NOCT\x09")); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := Read(strings.NewReader("NOC")); err == nil {
		t.Error("truncated header accepted")
	}
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated body accepted")
	}
	// A header claiming 2^28 records over an empty body fails at record
	// 0, having allocated next to nothing.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(hugeCount))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "record 0 field 0") {
		t.Errorf("2^28-record header over no records: error %v, want record 0's", err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("2^28-record header over no records allocated %d bytes", b)
	}
}

// hugeCount is a trace header whose record count, 2^28, is the most the
// decoder accepts, followed by no records.
const hugeCount = "NOCT\x01\x80\x80\x80\x80\x01"

func TestValidate(t *testing.T) {
	if err := Validate(sample(), 16); err != nil {
		t.Fatalf("sample should validate: %v", err)
	}
	bad := []struct {
		name string
		recs []Record
	}{
		{"dup id", []Record{{ID: 1, Src: 0, Dest: 1, Size: 1}, {ID: 1, Src: 0, Dest: 1, Size: 1}}},
		{"zero id", []Record{{ID: 0, Src: 0, Dest: 1, Size: 1}}},
		{"bad size", []Record{{ID: 1, Src: 0, Dest: 1, Size: 0}}},
		{"self loop", []Record{{ID: 1, Src: 1, Dest: 1, Size: 1}}},
		{"out of mesh", []Record{{ID: 1, Src: 0, Dest: 99, Size: 1}}},
		{"dangling dep", []Record{{ID: 1, Src: 0, Dest: 1, Size: 1, Dep: 42}}},
		{"disorder", []Record{{ID: 1, Cycle: 9, Src: 0, Dest: 1, Size: 1}, {ID: 2, Cycle: 1, Src: 0, Dest: 1, Size: 1}}},
	}
	for _, tc := range bad {
		if err := Validate(tc.recs, 16); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestMergePreservesDeps(t *testing.T) {
	a := []Record{
		{ID: 1, Cycle: 0, Src: 0, Dest: 1, Size: 1},
		{ID: 2, Cycle: 3, Src: 1, Dest: 0, Size: 5, Dep: 1},
	}
	b := []Record{
		{ID: 1, Cycle: 1, Src: 2, Dest: 3, Size: 1},
		{ID: 2, Cycle: 2, Src: 3, Dest: 2, Size: 5, Dep: 1},
	}
	merged := Merge(a, b)
	if len(merged) != 4 {
		t.Fatalf("merged len = %d", len(merged))
	}
	if err := Validate(merged, 16); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	// Cycle-sorted.
	for i := 1; i < len(merged); i++ {
		if merged[i].Cycle < merged[i-1].Cycle {
			t.Fatal("merge not cycle-sorted")
		}
	}
	// Each reply still depends on its own trace's request endpoints.
	byID := map[uint64]Record{}
	for _, r := range merged {
		byID[r.ID] = r
	}
	for _, r := range merged {
		if r.Dep == 0 {
			continue
		}
		req := byID[r.Dep]
		if req.Src != r.Dest || req.Dest != r.Src {
			t.Errorf("dependency no longer request/reply shaped: %+v <- %+v", req, r)
		}
	}
}

// TestMergeKeepsInvalidInputInvalid: Merge renumbers IDs, but a trace
// that fails Validate fails it merged too, with the same fault: a Dep
// that names no record of its own trace (here an ID only the other trace
// has) names no merged record, and a zero ID stays zero.
func TestMergeKeepsInvalidInputInvalid(t *testing.T) {
	valid := []Record{
		{ID: 1, Cycle: 0, Src: 0, Dest: 1, Size: 1},
		{ID: 3, Cycle: 2, Src: 1, Dest: 0, Size: 1, Dep: 1},
	}
	for _, c := range []struct {
		name  string
		bad   []Record
		fault string
	}{
		{"dangling dep", []Record{
			{ID: 1, Cycle: 1, Src: 2, Dest: 3, Size: 1},
			{ID: 2, Cycle: 3, Src: 3, Dest: 2, Size: 1, Dep: 3},
		}, "dangling dependency"},
		{"zero id", []Record{
			{ID: 0, Cycle: 1, Src: 2, Dest: 3, Size: 1},
			{ID: 2, Cycle: 3, Src: 3, Dest: 2, Size: 1},
		}, "bad or duplicate ID 0"},
	} {
		if err := Validate(c.bad, 16); err == nil || !strings.Contains(err.Error(), c.fault) {
			t.Fatalf("%s: Validate of the input = %v, want %q", c.name, err, c.fault)
		}
		for _, merged := range [][]Record{Merge(c.bad), Merge(valid, c.bad), Merge(c.bad, valid)} {
			if err := Validate(merged, 16); err == nil || !strings.Contains(err.Error(), c.fault) {
				t.Errorf("%s: Validate after Merge = %v, want %q", c.name, err, c.fault)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := topo.MustNew(8, 8)
	w, err := WorkloadByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(w, m, 2000, 42)
	b := Generate(w, m, 2000, 42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic generation: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := Generate(w, m, 2000, 43)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds gave identical traces")
		}
	}
}

func TestGenerateValidates(t *testing.T) {
	m := topo.MustNew(8, 8)
	for _, w := range Workloads() {
		recs := Generate(w, m, 3000, 7)
		if len(recs) == 0 {
			t.Errorf("%s: empty trace", w.Name)
			continue
		}
		if err := Validate(recs, m.Nodes()); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestWorkloadIntensityOrdering(t *testing.T) {
	m := topo.MustNew(8, 8)
	flits := func(name string) int {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range Generate(w, m, 5000, 1) {
			total += r.Size
		}
		return total
	}
	fluid := flits("fluidanimate")
	black := flits("blackscholes")
	x264 := flits("x264")
	if fluid <= 3*black {
		t.Errorf("fluidanimate (%d flits) should be far heavier than blackscholes (%d)", fluid, black)
	}
	if fluid <= x264 {
		t.Errorf("fluidanimate (%d) should outweigh x264 (%d)", fluid, x264)
	}
}

func TestWorkloadByNameUnknown(t *testing.T) {
	if _, err := WorkloadByName("doom"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// Property: write/read round-trips arbitrary well-formed traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seeds []uint16) bool {
		var recs []Record
		cyc := int64(0)
		for i, s := range seeds {
			cyc += int64(s % 5)
			recs = append(recs, Record{
				ID:    uint64(i + 1),
				Cycle: cyc,
				Src:   int(s) % 64,
				Dest:  int(s>>4) % 64,
				Size:  1 + int(s)%6,
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// newMesh returns the baseline mesh for fuzz helpers.
func newMesh() (m topo.Mesh, err error) {
	return topo.New(8, 8)
}
