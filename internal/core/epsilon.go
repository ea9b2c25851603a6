package core

// Epsilon is the shared absolute tolerance for deadline and GPU-time
// arithmetic. Simulated times in this repo are seconds accumulated by
// repeated addition of slot-sized increments, so two quantities that are
// mathematically equal can drift apart by a few ULPs; one nanosecond of
// simulated time is far below anything the scheduler resolves, and far above
// accumulated rounding error at realistic magnitudes. Exact == / != on
// computed float64s is rejected by eflint's floatlint analyzer — compare
// through AtMost instead, or restructure the comparison to be ordered
// (< / >).
const Epsilon = 1e-9

// AtMost reports a ≤ b up to Epsilon: a exceeds b only if it does so by more
// than the tolerance. This is the comparison shape of every deadline check
// ("does the required GPU time fit in the time remaining"), where rounding
// must never cause a spurious infeasibility verdict.
func AtMost(a, b float64) bool {
	return a <= b+Epsilon
}
