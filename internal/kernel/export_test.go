package kernel

// StepPortable forces the walk's tabled step onto the portable route
// until the returned function is called — for the external benchmark
// that runs a whole search on either route (walk_bench_test.go).
func StepPortable() (restore func()) {
	selected := step
	step = stepPortable
	return func() { step = selected }
}
