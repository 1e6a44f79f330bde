//go:build race

package experiments

// raceEnabled: the campaign's 2 s timers and 400 ms cooldowns are
// wall-clock promises, and under the race detector, beside another
// package's test binary, a handshake can take longer than that: a run
// is then no longer a function of its seed alone.
const raceEnabled = true
