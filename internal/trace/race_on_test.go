//go:build race

package trace

// raceEnabled reports that this binary was built with the race
// detector, which drops pooled items on purpose and so defeats the
// reader reuse the allocation bound pins.
const raceEnabled = true
