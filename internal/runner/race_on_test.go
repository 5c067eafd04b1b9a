//go:build race

package runner

// raceEnabled reports a -race build. A test whose property involves no
// shared state between goroutines beyond what the race pass already
// covers may skip the much slower race pass; the plain pass still runs
// it in full.
const raceEnabled = true
