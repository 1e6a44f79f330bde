//go:build !race

package quicscan

const raceEnabled = false
