//go:build amd64 && !purego

package ml

import (
	"os"
	"strings"
	"testing"
)

// Where the CPU has AVX2 and FMA and no GODEBUG cpu setting steers math.Exp
// off its FMA path, the init check must pass: a lane kernel that drifts
// from math.Exp would otherwise switch itself off without a failing test.
func TestLanesUsedWhereAvailable(t *testing.T) {
	if !haveAVX2FMA() || strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("no AVX2+FMA, or GODEBUG sets CPU features")
	}
	if !useLanes {
		t.Error("AVX2 and FMA present, but the exponential lanes disagree with math.Exp on the probe set")
	}
}
