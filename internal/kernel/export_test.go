package kernel

// StepPortable forces the walk's tabled step onto the portable route
// until the returned function is called — for the tests that hold the
// selected route to it, and for the external benchmark that runs a whole
// search on either route (walk_bench_test.go).
func StepPortable() (restore func()) {
	sq := stepQ
	stepQ = stepQPortable
	return func() { stepQ = sq }
}
