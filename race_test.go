//go:build race

package omptune

// The race detector drops a share of sync.Pool puts at random, so fmt
// allocates printers afresh and a report pass's allocation count runs above
// its normal, stable value.
func init() { underRace = true }
