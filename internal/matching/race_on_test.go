//go:build race

package matching

// raceEnabled reports that this binary was built with the race
// detector, which drops pooled items on purpose and so defeats the
// scratch reuse the zero-allocation guard pins.
const raceEnabled = true
