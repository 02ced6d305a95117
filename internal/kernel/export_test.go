package kernel

// StepPortable forces the walk's tabled steps, over samples and over
// counts, onto the portable route until the returned function is called
// — for the tests that hold the selected routes to it, and for the
// external benchmark that runs a whole search on either route
// (walk_bench_test.go).
func StepPortable() (restore func()) {
	s, sq := step, stepQ
	step, stepQ = stepPortable, stepQPortable
	return func() { step, stepQ = s, sq }
}
