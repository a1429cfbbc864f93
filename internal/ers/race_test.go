//go:build race

package ers

func init() { raceEnabled = true }
