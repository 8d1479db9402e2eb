//go:build race

package httpserver

const raceEnabled = true
