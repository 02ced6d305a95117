//go:build !amd64

package kernel

// platformRoutes are the vector routes this platform has: none.
func platformRoutes() []*route { return nil }
