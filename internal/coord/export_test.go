package coord

import "time"

// SetHelloTimeout shortens the hello deadline for a test and returns the
// function that restores it.
func SetHelloTimeout(d time.Duration) (restore func()) {
	old := helloTimeout
	helloTimeout = d
	return func() { helloTimeout = old }
}
