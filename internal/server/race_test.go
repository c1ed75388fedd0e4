//go:build race

package server_test

func init() { raceEnabled = true }
