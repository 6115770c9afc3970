package plant

import "testing"

func TestOnlyTests(t *testing.T) {
	_ = Config{Verbose: true}
	if OnlyTests() != 1 {
		t.Fail()
	}
}
