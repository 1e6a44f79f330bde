//go:build !race

package quic

const raceEnabled = false
