//go:build race

package engine

// raceEnabled reports that this binary was built with the race
// detector, which drops pooled items on purpose and so defeats the
// scratch reuse the zero-allocation guards pin.
const raceEnabled = true
