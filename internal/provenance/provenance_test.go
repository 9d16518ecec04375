package provenance

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(Decision{Stage: StageHyper}) // must not panic
	r.Reset()
	if r.Len() != 0 || r.Decisions() != nil {
		t.Fatal("nil recorder is not empty")
	}
}

func TestRecorderSequencesAndCopies(t *testing.T) {
	r := New()
	r.Record(Decision{Stage: StageVMLevel, Kind: KindMap, Subject: "t1"})
	r.Record(Decision{Stage: StageHyper, Kind: KindPlace, Subject: "vm1/flat-t1"})
	ds := r.Decisions()
	if len(ds) != 2 || ds[0].Seq != 0 || ds[1].Seq != 1 {
		t.Fatalf("bad sequence stamping: %+v", ds)
	}
	ds[0].Subject = "mutated"
	if r.Decisions()[0].Subject != "t1" {
		t.Fatal("Decisions returned an aliased slice")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Reset left %d decisions", r.Len())
	}
	r.Record(Decision{Stage: StageAdmit})
	if got := r.Decisions()[0].Seq; got != 0 {
		t.Fatalf("sequence did not restart after Reset: %d", got)
	}
}

// TestDecisionWireByteIdentity: a decision re-encodes to the same bytes
// after a round trip, so streamed provenance can be diffed and hashed by
// clients.
func TestDecisionWireByteIdentity(t *testing.T) {
	in := Decision{
		Seq: 7, Stage: StagePhase2, Kind: KindGrant,
		Subject: "core 0", Target: "CLOS 0",
		Cache: 5, BW: 4, Accepted: true,
		Reason: "CBM ways [0,5) programmed",
	}
	first, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Decision
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, in) {
		t.Fatalf("decision changed in round trip:\n in: %+v\nout: %+v", in, back)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("decision re-encoding drifted:\nfirst:  %s\nsecond: %s", first, second)
	}
}

func TestValidResource(t *testing.T) {
	for _, r := range []Resource{CPU, Cache, BW} {
		if !ValidResource(r) {
			t.Fatalf("%q should be valid", r)
		}
	}
	if ValidResource("gpu") {
		t.Fatal("unknown resource accepted")
	}
}

// grantShaped is a Phase 2 partition grant as the hypervisor-level search
// records it.
func grantShaped(i int) Decision {
	return Decision{
		Stage: StagePhase2, Kind: KindGrant, Subject: "core 2", Target: "cache",
		Cache: 4 + i%8, BW: 3 + i%5, Value: 0.0123, Accepted: true,
		Reason: "best utilization gain 0.0123 among unschedulable cores",
	}
}

func TestEachWalksRecordOrder(t *testing.T) {
	r := New()
	for i := 0; i < 100; i++ {
		r.Record(grantShaped(i))
	}
	var seen []Decision
	r.Each(func(d Decision) {
		seen = append(seen, d)
		if len(seen) == 1 {
			r.Record(grantShaped(100)) // Each holds no lock: recording from fn is allowed
		}
	})
	if len(seen) != 100 {
		t.Fatalf("Each visited %d decisions, want the 100 recorded before it started", len(seen))
	}
	for i, d := range seen {
		want := grantShaped(i)
		want.Seq = i
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("decision %d: %+v, want %+v", i, d, want)
		}
	}
	if !reflect.DeepEqual(seen, r.Decisions()[:100]) {
		t.Fatal("Each and Decisions disagree")
	}
	var nilRec *Recorder
	nilRec.Each(func(Decision) { t.Fatal("nil recorder visited a decision") })
}

// TestEachDuringRecord walks and trims the stream while another goroutine
// records into it; run it under -race.
func TestEachDuringRecord(t *testing.T) {
	r := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			r.Record(grantShaped(i))
		}
	}()
	for walking := true; walking; {
		select {
		case <-done:
			walking = false
		default:
		}
		n := 0
		r.Each(func(d Decision) {
			if d.Seq != n || d.Cache != 4+n%8 {
				t.Errorf("decision %d read as seq %d cache %d", n, d.Seq, d.Cache)
			}
			n++
		})
		if ds := r.Trim(); len(ds) < n || cap(ds) != len(ds) {
			t.Fatalf("Trim after walking %d: len %d cap %d", n, len(ds), cap(ds))
		}
	}
	if r.Len() != 2000 {
		t.Fatalf("recorded %d decisions, want 2000", r.Len())
	}
}

// TestTrimSharesExactStream: Trim leaves no growth slack and hands out the
// recorder's own array, and nothing the recorder does afterwards — more
// decisions, another Trim, Reset and re-recording — writes into a slice
// it handed out.
func TestTrimSharesExactStream(t *testing.T) {
	r := New()
	if r.Trim() != nil {
		t.Fatal("Trim of an empty stream is not nil")
	}
	for i := 0; i < 650; i++ {
		r.Record(grantShaped(i))
	}
	ds := r.Trim()
	if len(ds) != 650 || cap(ds) != len(ds) {
		t.Fatalf("Trim: len %d cap %d, want both 650", len(ds), cap(ds))
	}
	if again := r.Trim(); &again[0] != &ds[0] || cap(again) != cap(ds) {
		t.Fatal("Trim of a trimmed stream copied it")
	}
	want := append([]Decision(nil), ds...)

	r.Record(grantShaped(650))
	if r.Len() != 651 || r.Decisions()[650].Seq != 650 {
		t.Fatalf("recording after Trim: len %d", r.Len())
	}
	more := r.Trim()
	r.Reset()
	for i := 0; i < 700; i++ {
		r.Record(Decision{Stage: StageAdmit, Kind: KindReject, Reason: "overwritten?"})
	}
	if !reflect.DeepEqual(ds, want) || !reflect.DeepEqual(more[:650], want) || more[650].Seq != 650 {
		t.Fatal("a trimmed stream changed after the recorder went on recording")
	}
}

// TestViewSharesStream: View copies nothing, caps the view's capacity at
// its length, and a later Record, Reset or append to the view leaves it as
// it was.
func TestViewSharesStream(t *testing.T) {
	r := New()
	if r.View() != nil || (*Recorder)(nil).View() != nil {
		t.Fatal("View of an empty or nil recorder is not nil")
	}
	for i := 0; i < 650; i++ {
		r.Record(grantShaped(i))
	}
	v := r.View()
	if len(v) != 650 || cap(v) != 650 {
		t.Fatalf("View: len %d cap %d, want both 650", len(v), cap(v))
	}
	r.mu.Lock()
	stream := r.decisions
	r.mu.Unlock()
	if cap(stream) == 650 {
		t.Fatal("test premise: the recorder's stream should have growth slack")
	}
	if &v[0] != &stream[0] {
		t.Fatal("View copied the stream")
	}
	want := append([]Decision(nil), v...)

	r.Record(grantShaped(650))
	grown := append(v, grantShaped(999))
	if &grown[0] == &v[0] {
		t.Fatal("appending to a view wrote into the recorder's array")
	}
	if r.Len() != 651 || r.Decisions()[650].Seq != 650 {
		t.Fatalf("recording after View: len %d", r.Len())
	}
	r.Reset()
	for i := 0; i < 700; i++ {
		r.Record(Decision{Stage: StageAdmit, Kind: KindReject, Reason: "overwritten?"})
	}
	if len(v) != 650 || !reflect.DeepEqual(v, want) {
		t.Fatal("a view changed after the recorder went on recording")
	}
}

// BenchmarkRecorderRecord records one run's worth of grant-shaped
// decisions, about what a cold existing-CSA run records, into a fresh
// recorder and trims it as a finished run does.
func BenchmarkRecorderRecord(b *testing.B) {
	ds := make([]Decision, 650)
	for i := range ds {
		ds[i] = grantShaped(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := New()
		for _, d := range ds {
			r.Record(d)
		}
		if len(r.Trim()) != len(ds) {
			b.Fatal("short stream")
		}
	}
}

// collectSink keeps every decision it is handed.
type collectSink struct{ got []Decision }

func (s *collectSink) Record(d Decision) {
	if s == nil {
		return
	}
	s.got = append(s.got, d)
}

// TestRecordRepeat: a repeat appends re-stamped copies of the range, which
// the sink sees like any decision, remembers the range, leaves earlier
// views and decisions as they were, and records nothing for an empty or
// out-of-range request; Reset forgets the repeats with the stream.
func TestRecordRepeat(t *testing.T) {
	sink := &collectSink{}
	r := NewStreaming(sink)
	for i := 0; i < 5; i++ {
		r.Record(grantShaped(i))
	}
	before := r.View()
	r.RecordRepeat(1, 4)
	r.RecordRepeat(6, 8) // copies part of the first copy
	for _, bad := range [][2]int{{2, 2}, {3, 1}, {-1, 2}, {0, 11}, {9, 12}} {
		r.RecordRepeat(bad[0], bad[1])
	}
	ds := r.Decisions()
	if len(ds) != 10 {
		t.Fatalf("%d decisions after repeating 3 and 2, want 10", len(ds))
	}
	src := []int{0, 1, 2, 3, 4, 1, 2, 3, 2, 3}
	for i, d := range ds {
		want := grantShaped(src[i])
		want.Seq = i
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("decision %d: %+v, want %+v", i, d, want)
		}
	}
	if !reflect.DeepEqual(sink.got, ds) {
		t.Fatalf("sink saw %d decisions, want the stream's %d", len(sink.got), len(ds))
	}
	if want := []Repeat{{At: 5, From: 1, N: 3}, {At: 8, From: 6, N: 2}}; !reflect.DeepEqual(r.Repeats(), want) {
		t.Fatalf("Repeats() = %+v, want %+v", r.Repeats(), want)
	}
	for i, d := range before {
		if d.Seq != i {
			t.Fatalf("a repeat rewrote decision %d of an earlier view: seq %d", i, d.Seq)
		}
	}
	r.Reset()
	if r.Repeats() != nil || r.Len() != 0 {
		t.Fatal("Reset kept repeats or decisions")
	}
	var nilRec *Recorder
	nilRec.RecordRepeat(0, 1)
	if nilRec.Repeats() != nil {
		t.Fatal("nil recorder has repeats")
	}
}

// TestRecordRepeatDuringRead repeats ranges of the stream while another
// goroutine reads its views and repeats; run it under -race. Every repeat
// inside a view reads as its source re-stamped.
func TestRecordRepeatDuringRead(t *testing.T) {
	r := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			r.Record(grantShaped(i))
			r.Record(grantShaped(i + 1))
			n := r.Len()
			r.RecordRepeat(n-2, n)
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		ds := r.View()
		for _, rep := range r.Repeats() {
			for k := 0; k < rep.N && rep.At+k < len(ds); k++ {
				got, want := ds[rep.At+k], ds[rep.From+k]
				want.Seq = rep.At + k
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("repeat %+v: decision %d = %+v, want %+v", rep, rep.At+k, got, want)
				}
			}
		}
	}
	if r.Len() != 2000 || len(r.Repeats()) != 500 {
		t.Fatalf("%d decisions and %d repeats, want 2000 and 500", r.Len(), len(r.Repeats()))
	}
}
