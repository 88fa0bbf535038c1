package apps

import (
	"math"
	"testing"
)

// The off-diagonal table must reproduce 1/2^d bit for bit, or every CG
// matrix, and with it every CG result, would shift.
func TestCGInvPow2MatchesPow(t *testing.T) {
	for d := 0; d <= 52; d++ {
		want := 1 / math.Pow(2, float64(d))
		if got := cgMatrix(0, d); d > 0 && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cgMatrix(0, %d) = %v, want %v", d, got, want)
		}
		if got := cgInvPow2[d]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cgInvPow2[%d] = %v, want %v", d, got, want)
		}
	}
	if got := cgMatrix(0, 53); got != 0 {
		t.Errorf("cgMatrix(0, 53) = %v, want 0", got)
	}
}
