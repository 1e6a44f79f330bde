//go:build race

package quic

// raceEnabled: allocation counts are not comparable under the race
// detector (sync.Pool drops a share of what is Put back).
const raceEnabled = true
