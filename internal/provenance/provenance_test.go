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
