package kernel

// Widen is the one dequantization a compressed-domain pass performs
// (internal/search's loadQuant): it widens the int16 counts c into
// x[i] = float64(c[i]) and fills sums with their running totals,
// sums[i] = {Σ c[:i], Σ c[:i]²}, so sums[0] = {0, 0} and the window
// [β, β+n) has Σc = sums[β+n][0] − sums[β][0] and Σc² likewise. The two
// totals sit side by side because a window norm always reads both: one
// cache line per end of the window instead of two. x must hold len(c)
// elements and sums len(c)+1.
//
// Every value written is an exact integer — a count widens to float64
// without rounding, and |c| ≤ 2¹⁵ keeps Σc² below 2⁶³ for any segment
// that fits in memory — so the vector route and the portable loop agree
// with ==, not within a tolerance.
func Widen(x []float64, sums [][2]int64, c []int16) {
	x, sums = x[:len(c)], sums[:len(c)+1]
	sums[0] = [2]int64{}
	widen(x, sums, c)
}

// widenPortable continues the running totals from sums[0]: it fills
// x[:len(c)] and sums[1:len(c)+1]. It is the route of every platform
// without the vector routine, the reference that routine is tested ==
// against, and what finishes the vector routine's last len(c) mod 4
// counts.
func widenPortable(x []float64, sums [][2]int64, c []int16) {
	sum, sumSq := sums[0][0], sums[0][1]
	// Slices cut to len(c) so the loop carries no bounds checks.
	x, sums = x[:len(c)], sums[1:len(c)+1]
	for i, v := range c {
		w := int64(v)
		sum += w
		sumSq += w * w
		x[i], sums[i][0], sums[i][1] = float64(v), sum, sumSq
	}
}
