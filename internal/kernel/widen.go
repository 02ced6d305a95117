package kernel

// MaxWidenLen is the longest run of counts Widen accepts. The running
// totals are float64, and both routes must hold them exactly: |c| ≤ 2¹⁵
// puts Σc² at most 2³⁰ per count, so 2²³ counts keep every total — and
// every partial sum on the way — within 2⁵³, float64's exact integers.
// Who keeps passes far below it: mdb refuses slice lengths above
// mdb.MaxSliceLen = 2²⁰ at insert and at load, the search refuses
// queries longer than that, so a pass — one slice and one query less a
// sample — has fewer than 2²¹ counts; the search asserts it.
const MaxWidenLen = 1 << 23

// Widen is everything a pass over counts builds before it is walked
// (internal/search's open): the running totals of the int16 counts c,
// widened to float64 — sums[i] = {Σ c[:i], Σ c[:i]²}, so sums[0] = {0, 0}
// and the window [β, β+n) has Σc = sums[β+n][0] − sums[β][0] and Σc²
// likewise. The counts themselves are not copied: the walk reads them in
// place. The two totals sit side by side because a step always reads
// both: one 16-byte load per end of the window. sums must hold len(c)+1
// entries; len(c) must not exceed MaxWidenLen.
//
// Every value written is an exact integer — under MaxWidenLen the totals
// are the same whether they are accumulated as integers and converted
// (the portable loop) or in float64 outright (the vector routine) — so
// the difference of two totals is exact as well (a window's Σc and Σc²
// are what integer arithmetic gives), and the two routes agree with ==,
// not within a tolerance.
func Widen(sums [][2]float64, c []int16) {
	if len(c) > MaxWidenLen {
		panic("kernel: Widen over more counts than their sums stay exact for")
	}
	sums = sums[:len(c)+1]
	sums[0] = [2]float64{}
	widen(sums, c)
}

// widenPortable continues the running totals from sums[0]: it fills
// sums[1:len(c)+1]. It is the route of every platform without the vector
// routine, the reference that routine is tested == against, and what
// finishes the vector routine's last len(c) mod 4 counts.
func widenPortable(sums [][2]float64, c []int16) {
	sum, sumSq := int64(sums[0][0]), int64(sums[0][1])
	// Cut to len(c) so the loop carries no bounds checks.
	sums = sums[1 : len(c)+1]
	for i, v := range c {
		w := int64(v)
		sum += w
		sumSq += w * w
		sums[i][0], sums[i][1] = float64(sum), float64(sumSq)
	}
}
