//go:build race

package core

// raceEnabled reports a -race build. A test whose property involves no
// shared state between goroutines may skip the much slower race pass;
// the plain pass still runs it in full.
const raceEnabled = true
