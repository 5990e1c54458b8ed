package lib

import "testing"

func TestOracle(t *testing.T) { Oracle() }
