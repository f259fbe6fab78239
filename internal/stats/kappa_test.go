package stats

import (
	"fmt"
	"math"
	"testing"
)

// TestCohensKappaBitStable: kappa must be the same float64, bit for bit,
// on every call. With ~30 labels the chance-agreement sum is long enough
// for a different addition order to move the last bit, so this catches
// any return to map-order summation.
func TestCohensKappaBitStable(t *testing.T) {
	const labels = 30
	var a, b []string
	for i := 0; i < labels; i++ {
		for k := 0; k <= i%11+i%3; k++ {
			a = append(a, fmt.Sprintf("code-%02d", i))
			// b agrees on every other item and shifts the rest to a
			// neighbouring label.
			j := i
			if k%2 == 1 {
				j = (i + 1) % labels
			}
			b = append(b, fmt.Sprintf("code-%02d", j))
		}
	}
	want, err := CohensKappa(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(want) || want <= 0 || want >= 1 {
		t.Fatalf("kappa = %v, want a value in (0, 1)", want)
	}
	for i := 0; i < 500; i++ {
		got, err := CohensKappa(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: kappa %v (bits %#x) != first call %v (bits %#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
