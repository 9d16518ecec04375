package binpack

import (
	"testing"
	"testing/quick"
)

func TestPackBestFitPrefersTightBin(t *testing.T) {
	// 0.6 -> bin 0; 0.5 cannot join bin 0, so -> bin 1; the 0.35 item fits
	// in both and best-fit must pick bin 0 (tightest remaining capacity).
	r := PackDecreasing([]float64{0.6, 0.5, 0.35}, 2, 1.0)
	if !r.OK {
		t.Fatalf("packing failed: %+v", r)
	}
	if r.Assign[2] != 0 {
		t.Errorf("best-fit placed 0.35 in bin %d, want 0 (tightest)", r.Assign[2])
	}
}

func TestPackFailure(t *testing.T) {
	r := PackDecreasing([]float64{0.9, 0.9, 0.9}, 2, 1.0)
	if r.OK {
		t.Error("packing three 0.9 items into two unit bins should fail")
	}
	if r.Assign[2] != -1 {
		t.Errorf("unplaced item should have assignment -1, got %d", r.Assign[2])
	}
	// The first two must still be placed.
	if r.Assign[0] == -1 || r.Assign[1] == -1 {
		t.Error("placeable items were not placed")
	}
}

func TestPackOversizedItem(t *testing.T) {
	r := PackDecreasing([]float64{1.5, 0.2}, 2, 1.0)
	if r.OK || r.Assign[0] != -1 {
		t.Error("oversized item must fail")
	}
	if r.Assign[1] == -1 {
		t.Error("remaining items must still be placed after a failure")
	}
}

func TestPackExactFill(t *testing.T) {
	// Items that sum exactly to capacity must fit despite float arithmetic.
	r := PackDecreasing([]float64{0.1, 0.2, 0.3, 0.4}, 1, 1.0)
	if !r.OK {
		t.Errorf("exact fill rejected: %+v", r)
	}
}

func TestPackDecreasingReportsOriginalOrder(t *testing.T) {
	sizes := []float64{0.2, 0.9}
	r := PackDecreasing(sizes, 2, 1.0)
	if !r.OK {
		t.Fatal("packing failed")
	}
	// Item 1 (0.9) is packed first into bin 0; item 0 joins a bin after.
	if r.Assign[1] != 0 {
		t.Errorf("largest item should land in bin 0, got %d", r.Assign[1])
	}
}

func TestLoadsMatchAssignments(t *testing.T) {
	f := func(raw []uint8, binsRaw uint8) bool {
		sizes := make([]float64, 0, len(raw))
		for _, v := range raw {
			sizes = append(sizes, float64(v%90)/100.0)
		}
		nbins := int(binsRaw%5) + 1
		r := PackDecreasing(sizes, nbins, 1.0)
		loads := make([]float64, nbins)
		for i, b := range r.Assign {
			if b == -1 {
				continue
			}
			if b < 0 || b >= nbins {
				return false
			}
			loads[b] += sizes[i]
		}
		for b := range loads {
			if diff := loads[b] - r.Loads[b]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
			if r.Loads[b] > 1.0+1e-9 {
				return false // capacity respected
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZeroItems(t *testing.T) {
	r := PackDecreasing(nil, 3, 1.0)
	if !r.OK || len(r.Assign) != 0 {
		t.Errorf("empty packing should trivially succeed: %+v", r)
	}
}

func TestZeroBins(t *testing.T) {
	r := PackDecreasing([]float64{0.1}, 0, 1.0)
	if r.OK {
		t.Error("packing into zero bins must fail")
	}
}
