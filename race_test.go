//go:build race

package streamcount_test

func init() { raceEnabled = true }
