package keyhygiene_test

import (
	"testing"

	"reedvet/analysistest"
	"reedvet/analyzers/keyhygiene"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, "../../testdata/fix", []string{"./internal/mle", "./wipe/..."}, keyhygiene.Analyzer)
}
