package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderSafe exercises every method on a nil *Recorder — the
// default state of every instrumented call site.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	r.Inc("a")
	r.Add("a", 5)
	r.Reset()
	if got := r.Counter("a"); got != 0 {
		t.Errorf("nil Counter = %d, want 0", got)
	}
	if s := r.Snapshot(); !s.Empty() {
		t.Errorf("nil Snapshot not empty: %+v", s)
	}
}

func TestCounters(t *testing.T) {
	r := New()
	r.Inc("x")
	r.Add("x", 9)
	r.Add("zero", 0) // registers the key
	if got := r.Counter("x"); got != 10 {
		t.Errorf("Counter(x) = %d, want 10", got)
	}
	if got := r.Counter("zero"); got != 0 {
		t.Errorf("Counter(zero) = %d, want 0", got)
	}
	s := r.Snapshot()
	if _, ok := s.Counters["zero"]; !ok {
		t.Error("zero-delta Add did not register the counter in the snapshot")
	}
	r.Reset()
	if !r.Snapshot().Empty() {
		t.Error("Reset left data behind")
	}
}

// TestConcurrentDeterminism drives a shared recorder from many goroutines
// (as the parallel schedulability sweep does) and checks the counter totals
// are the exact sums regardless of interleaving.
func TestConcurrentDeterminism(t *testing.T) {
	const workers, perWorker = 16, 1000
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc("events")
				r.Add("bulk", 3)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("events"); got != workers*perWorker {
		t.Errorf("events = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("bulk"); got != 3*workers*perWorker {
		t.Errorf("bulk = %d, want %d", got, 3*workers*perWorker)
	}
}

// TestRepeatedRunsBitIdentical replays the same deterministic recording
// twice and requires identical snapshots.
func TestRepeatedRunsBitIdentical(t *testing.T) {
	record := func() Snapshot {
		r := New()
		for i := 0; i < 100; i++ {
			r.Add("csa.sbf.evals", int64(i%7))
			r.Inc("alloc.phase2.grants")
		}
		return r.Snapshot()
	}
	a, b := record(), record()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated runs differ:\n%+v\n%+v", a, b)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Add("c.one", 42)
	r.Add("c.two", 7)
	want := r.Snapshot()

	data, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSON round trip changed the snapshot:\nwant %+v\ngot  %+v", want, got)
	}

	// The empty snapshot round-trips too.
	data, err = Snapshot{}.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err = ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Errorf("empty snapshot round trip not empty: %+v", got)
	}

	if _, err := ParseSnapshot([]byte("{nope")); err == nil {
		t.Error("ParseSnapshot accepted malformed JSON")
	}
}

func TestTableRendering(t *testing.T) {
	r := New()
	r.Add("b.counter", 2)
	r.Add("a.counter", 1)
	table := r.Snapshot().Table()

	for _, want := range []string{"a.counter", "b.counter", "counter", "value"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// Counters render sorted by name.
	if strings.Index(table, "a.counter") > strings.Index(table, "b.counter") {
		t.Errorf("counters not sorted:\n%s", table)
	}
	if got := (Snapshot{}).Table(); !strings.Contains(got, "no metrics") {
		t.Errorf("empty table = %q", got)
	}
}

func TestCSVRows(t *testing.T) {
	r := New()
	r.Add("c", 5)
	r.Add("b", 2)
	rows := r.Snapshot().CSVRows("solA")
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	header := CSVHeader()
	for _, row := range rows {
		if len(row) != len(header) {
			t.Fatalf("row width %d != header width %d", len(row), len(header))
		}
		if row[0] != "solA" {
			t.Errorf("scope = %q, want solA", row[0])
		}
	}
	if rows[0][1] != "counter" || rows[0][2] != "b" || rows[0][3] != "2" {
		t.Errorf("counter row = %v", rows[0])
	}
	if rows[1][2] != "c" || rows[1][3] != "5" {
		t.Errorf("counter row = %v", rows[1])
	}
}
