package lint_test

import (
	"testing"

	"vpp/internal/lint"
	"vpp/internal/lint/analysistest"
)

func TestDetmap(t *testing.T) {
	analysistest.Run(t, "testdata/detmap", lint.Detmap, "vpp/internal/detfix")
}
