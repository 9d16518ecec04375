package report

import (
	"testing"

	"vc2m"
)

// TestRepeatSourceFindsTheCopiedDecision: on a run whose packing search
// replayed attempts, every decision inside a repeat maps to a source
// before it that equals it but for Seq, so Marshal copies each of them
// rather than encoding it again.
func TestRepeatSourceFindsTheCopiedDecision(t *testing.T) {
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{Platform: vc2m.PlatformA, TargetRefUtil: 1.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prov := vc2m.NewProvenance()
	if _, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.ExistingCSA, Provenance: prov}); err != nil {
		t.Fatal(err)
	}
	doc := BuildRun(RunInput{Title: "repeats", Platform: sys.Platform, Provenance: prov})
	copied := 0
	for r, rep := range doc.repeats {
		for i := rep.At; i < rep.At+rep.N; i++ {
			j := repeatSource(doc.repeats, r, i)
			if j < 0 || j >= i || !sameButSeq(&doc.Decisions[i], &doc.Decisions[j]) {
				t.Fatalf("repeat %d: decision %d maps to %d", r, i, j)
			}
			copied++
		}
	}
	if copied == 0 {
		t.Fatal("the run repeats no decision")
	}
}
