package core

import "testing"

// TestEpsilonPinned pins the tolerance itself: admission decisions across the
// repo assume one nanosecond of simulated time as the indifference threshold,
// and silently widening (or narrowing) it would change which jobs are
// admitted at the boundary.
func TestEpsilonPinned(t *testing.T) {
	if Epsilon != 1e-9 {
		t.Fatalf("Epsilon = %g, want exactly 1e-9; changing it alters boundary admission decisions", Epsilon)
	}
}

func TestAtMost(t *testing.T) {
	cases := []struct {
		name string
		a, b float64
		want bool
	}{
		{"strictly below", 1, 2, true},
		{"equal", 2, 2, true},
		{"above within tolerance", 2 + 5e-10, 2, true},
		{"above beyond tolerance", 2 + 2e-9, 2, false},
		{"well above", 3, 2, false},
	}
	for _, c := range cases {
		if got := AtMost(c.a, c.b); got != c.want {
			t.Errorf("%s: AtMost(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}
