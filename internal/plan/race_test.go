//go:build race

package plan_test

func init() { raceEnabled = true }
